//! Blocking client for the serve wire protocol.
//!
//! One [`Client`] owns one connection and reuses its frame buffers, so a
//! steady request loop allocates only for the returned values. Used by
//! `tests/serve.rs`, perfbench's serving workloads, and the `edsr query`
//! CLI.
//!
//! ## Resilience
//!
//! With a [`RetryPolicy`] the client reconnects and retries transient
//! failures — I/O errors, closed connections, protocol desync after wire
//! corruption, and `ERR_OVERLOADED` / `ERR_DEADLINE` rejections — with
//! bounded exponential backoff and deterministic seeded jitter. Overload
//! responses carry a server retry-after hint, which takes precedence
//! over the exponential schedule. Only idempotent requests (embed, knn,
//! stats) are retried; a retried embed can at worst recompute a
//! deterministic forward, never duplicate an effect. Shutdown is not
//! retried — once the flag is set, the server stops accepting.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::fault::{FaultyStream, WireFaultPlan};
use crate::protocol::{
    read_frame, write_frame, Request, Response, StatsReply, WireMetric, WireNeighbor, ERR_DEADLINE,
    ERR_OVERLOADED,
};
use crate::ServeError;

/// Bounded-retry settings for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Base backoff; attempt `n` waits `backoff * 2^(n-1)` plus jitter.
    pub backoff: Duration,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream (same seed, same waits).
    pub jitter_seed: u64,
    /// Also retry *any* server rejection (chaos mode: under injected
    /// byte corruption a well-formed request can arrive mangled and be
    /// rejected as malformed; retrying it is safe for idempotent ops).
    pub retry_rejections: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5eed,
            retry_rejections: false,
        }
    }
}

impl RetryPolicy {
    /// No retrying at all (the [`Client::connect`] behaviour).
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// The default schedule with `max_retries` attempts.
    pub fn retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    fn retryable(&self, err: &ServeError) -> bool {
        match err {
            ServeError::Io(_) | ServeError::ServerClosed => true,
            // Desync symptoms: after corruption the stream cannot be
            // re-synchronised, but a fresh connection can.
            ServeError::Protocol(_) | ServeError::UnexpectedResponse => true,
            ServeError::Rejected { code, .. } => {
                *code == ERR_OVERLOADED || *code == ERR_DEADLINE || self.retry_rejections
            }
        }
    }
}

/// A rejection leaves the connection synchronised (the server answered);
/// everything else warrants a reconnect before the next attempt.
fn needs_reconnect(err: &ServeError) -> bool {
    !matches!(err, ServeError::Rejected { .. })
}

fn is_idempotent(req: &Request) -> bool {
    !matches!(req, Request::Shutdown)
}

enum Transport {
    Plain(TcpStream),
    Faulty(FaultyStream<TcpStream>),
}

impl std::io::Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Plain(s) => s.read(buf),
            Transport::Faulty(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Plain(s) => s.write(buf),
            Transport::Faulty(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Plain(s) => s.flush(),
            Transport::Faulty(s) => s.flush(),
        }
    }
}

/// A blocking connection to an `edsr serve` instance.
pub struct Client {
    transport: Transport,
    addr: SocketAddr,
    policy: RetryPolicy,
    fault_seed: Option<u64>,
    conns: u64,
    retries: u64,
    jitter: StdRng,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl Client {
    /// Connects without retrying (with `TCP_NODELAY` so single-request
    /// latency is honest).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_impl(addr, RetryPolicy::none(), None)
    }

    /// Connects with reconnect + bounded-backoff retrying for transient
    /// failures (including the initial connect).
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, ServeError> {
        Self::connect_impl(addr, policy, None)
    }

    /// Chaos-mode connect: every connection (including reconnects) is
    /// wrapped in a seeded [`FaultyStream`]; the per-connection plan is
    /// derived from `fault_seed` plus the connection count.
    pub fn connect_chaos(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        fault_seed: u64,
    ) -> Result<Self, ServeError> {
        Self::connect_impl(addr, policy, Some(fault_seed))
    }

    fn connect_impl(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        fault_seed: Option<u64>,
    ) -> Result<Self, ServeError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        let mut jitter = StdRng::seed_from_u64(policy.jitter_seed);
        let mut retries = 0u64;
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if attempt < policy.max_retries => {
                    attempt += 1;
                    retries += 1;
                    if edsr_obs::enabled() {
                        edsr_obs::counter("client/retries", 1);
                    }
                    std::thread::sleep(backoff_delay(&policy, attempt, &mut jitter, None));
                }
                Err(e) => return Err(e.into()),
            }
        };
        stream.set_nodelay(true)?;
        let transport = wrap(stream, fault_seed, 0);
        Ok(Self {
            transport,
            addr,
            policy,
            fault_seed,
            conns: 0,
            retries,
            jitter,
            payload: Vec::new(),
            frame: Vec::new(),
        })
    }

    /// Retries performed so far (reconnect-and-resend or backoff waits),
    /// including retried initial connects.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn reconnect(&mut self) -> Result<(), ServeError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.conns += 1;
        self.transport = wrap(stream, self.fault_seed, self.conns);
        Ok(())
    }

    fn try_roundtrip(&mut self, req: &Request) -> Result<Response, ServeError> {
        req.encode_into(&mut self.payload);
        write_frame(&mut self.transport, &self.payload)?;
        if !read_frame(&mut self.transport, &mut self.frame)? {
            return Err(ServeError::ServerClosed);
        }
        let (_opcode, resp) = Response::decode(&self.frame)?;
        if let Response::Error {
            code,
            retry_after_ms,
            message,
        } = resp
        {
            return Err(ServeError::Rejected {
                code,
                retry_after_ms,
                message,
            });
        }
        Ok(resp)
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ServeError> {
        let mut attempt = 0u32;
        loop {
            let result = self.try_roundtrip(req);
            let err = match result {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if attempt >= self.policy.max_retries
                || !is_idempotent(req)
                || !self.policy.retryable(&err)
            {
                return Err(err);
            }
            attempt += 1;
            self.retries += 1;
            if edsr_obs::enabled() {
                edsr_obs::counter("client/retries", 1);
            }
            let hint = match &err {
                ServeError::Rejected {
                    retry_after_ms: ms, ..
                } if *ms > 0 => Some(*ms),
                _ => None,
            };
            std::thread::sleep(backoff_delay(&self.policy, attempt, &mut self.jitter, hint));
            if needs_reconnect(&err) {
                // A failed reconnect keeps the dead transport: the next
                // attempt fails fast with Io and re-enters this path
                // until the retry budget runs out.
                let _ = self.reconnect();
            }
        }
    }

    /// Embeds `input` through the snapshot encoder for `task`.
    pub fn embed(&mut self, task: u32, input: &[f32]) -> Result<Vec<f32>, ServeError> {
        let resp = self.roundtrip(&Request::Embed {
            task,
            input: input.to_vec(),
        })?;
        match resp {
            Response::Embedding(v) => Ok(v),
            _ => Err(ServeError::UnexpectedResponse),
        }
    }

    /// The `k` stored replay representations nearest to `query`.
    pub fn knn(
        &mut self,
        query: &[f32],
        k: u32,
        metric: WireMetric,
    ) -> Result<Vec<WireNeighbor>, ServeError> {
        let resp = self.roundtrip(&Request::Knn {
            k,
            metric,
            query: query.to_vec(),
        })?;
        match resp {
            Response::Neighbors(ns) => Ok(ns),
            _ => Err(ServeError::UnexpectedResponse),
        }
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<StatsReply, ServeError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ServeError::UnexpectedResponse),
        }
    }

    /// Asks the server to drain and stop; returns once acknowledged.
    /// Never retried: the flag may already be set even if the ack was
    /// lost, and the drained server stops accepting reconnects.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ServeError::UnexpectedResponse),
        }
    }
}

fn wrap(stream: TcpStream, fault_seed: Option<u64>, conn: u64) -> Transport {
    match fault_seed {
        Some(seed) => Transport::Faulty(FaultyStream::new(
            stream,
            WireFaultPlan::seeded(seed.wrapping_add(conn), 64, 6),
        )),
        None => Transport::Plain(stream),
    }
}

/// Attempt `n` (1-based) waits `backoff * 2^(n-1)` capped at
/// `backoff_cap`, plus deterministic jitter in `[0, wait/2]`. A non-zero
/// server retry-after hint replaces the exponential base.
fn backoff_delay(
    policy: &RetryPolicy,
    attempt: u32,
    jitter: &mut StdRng,
    retry_after_ms: Option<u32>,
) -> Duration {
    let base = match retry_after_ms {
        Some(ms) => Duration::from_millis(u64::from(ms)),
        None => {
            let exp = attempt.saturating_sub(1).min(20);
            policy
                .backoff
                .saturating_mul(1u32 << exp)
                .min(policy.backoff_cap)
        }
    };
    let half_us = (base.as_micros() / 2) as u64;
    let jitter_us = if half_us == 0 {
        0
    } else {
        jitter.random_range(0..=half_us)
    };
    base + Duration::from_micros(jitter_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            max_retries: 8,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            jitter_seed: 42,
            retry_rejections: false,
        };
        let mut a = StdRng::seed_from_u64(policy.jitter_seed);
        let mut b = StdRng::seed_from_u64(policy.jitter_seed);
        for attempt in 1..=8 {
            let da = backoff_delay(&policy, attempt, &mut a, None);
            let db = backoff_delay(&policy, attempt, &mut b, None);
            assert_eq!(da, db, "same seed must give the same wait");
            // Exponential base capped at 80 ms, jitter at most +50%.
            assert!(da <= Duration::from_millis(120), "wait {da:?} unbounded");
        }
        // The server hint overrides the exponential base.
        let d = backoff_delay(&policy, 1, &mut a, Some(7));
        assert!(d >= Duration::from_millis(7) && d <= Duration::from_millis(11));
    }

    #[test]
    fn retry_classification_honours_codes_and_idempotence() {
        let policy = RetryPolicy::default();
        assert!(policy.retryable(&ServeError::ServerClosed));
        assert!(policy.retryable(&ServeError::Rejected {
            code: ERR_OVERLOADED,
            retry_after_ms: 5,
            message: String::new(),
        }));
        assert!(!policy.retryable(&ServeError::Rejected {
            code: crate::protocol::ERR_BAD_REQUEST,
            retry_after_ms: 0,
            message: String::new(),
        }));
        let chaos = RetryPolicy {
            retry_rejections: true,
            ..RetryPolicy::default()
        };
        assert!(chaos.retryable(&ServeError::Rejected {
            code: crate::protocol::ERR_BAD_REQUEST,
            retry_after_ms: 0,
            message: String::new(),
        }));
        assert!(is_idempotent(&Request::Stats));
        assert!(!is_idempotent(&Request::Shutdown));
        assert!(needs_reconnect(&ServeError::ServerClosed));
        assert!(!needs_reconnect(&ServeError::Rejected {
            code: ERR_DEADLINE,
            retry_after_ms: 0,
            message: String::new(),
        }));
    }
}
