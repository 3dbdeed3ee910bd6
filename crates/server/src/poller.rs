//! Nonblocking connection front-end: a small pool of poller threads
//! multiplexing every accepted socket, so thread count scales with
//! in-flight requests (the worker fleet) instead of open connections.
//!
//! The crate forbids `unsafe`, so there is no `epoll` here. Each poller
//! owns a set of nonblocking sockets and sweeps them: buffered bytes
//! are framed into lines of at most [`MAX_LINE`] bytes (64 KiB; a
//! longer line is drained through its newline and answered with
//! [`LineService::oversized_line`]), complete lines go to a
//! [`LineService`], and responses are flushed without
//! blocking. A connection that keeps yielding `WouldBlock` is polled on
//! an exponential per-connection backoff (500 µs doubling to 256 ms),
//! so one poller holds thousands of idle sockets at a few percent CPU.
//! Workers wake the pollers through a [`Waker`] the moment a reply is
//! ready, so queued work never waits out a backoff.
//!
//! A conversational peer sends its next request right after it reads a
//! reply, so queuing a reply re-arms the connection on a short ramp
//! instead: the next read is due at once, and each empty read doubles
//! the wait from 16 µs. A peer that answers within tens of microseconds
//! is read on the next sweep or two; one that stays quiet rejoins the
//! 500 µs → 256 ms schedule after five empty reads.
//!
//! The service decides what a line means; the poller only frames,
//! paces and flushes. The server's service answers control requests,
//! refusals and memory-resident cache hits on this thread
//! ([`LineAction::Inline`]); only work that needs a worker comes back
//! [`LineAction::Pending`]. One request may be outstanding per connection at
//! a time — while a [`LineAction::Pending`] reply is awaited, already
//! buffered bytes stay buffered and the socket is not read, which
//! preserves the strict request/response ordering of the blocking
//! front-end this replaces.

use crate::conn::MAX_LINE;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Floor of the per-connection read backoff (a hot connection is
/// re-polled this soon after a `WouldBlock`).
const BACKOFF_MIN: Duration = Duration::from_micros(500);
/// Start of the ramp a connection is re-armed on once a reply to it is
/// queued; it doubles on each empty read and passes `BACKOFF_MIN` after
/// five of them.
const REARM_MIN: Duration = Duration::from_micros(16);
/// Ceiling of the per-connection read backoff (an idle connection
/// costs one failed read syscall per this interval).
const BACKOFF_MAX: Duration = Duration::from_millis(256);
/// Longest a poller parks with no armed deadline — bounds how stale
/// the stop flag can go unobserved.
const PARK_MAX: Duration = Duration::from_millis(250);
/// Retry interval when a response flush itself would block.
const WRITE_RETRY: Duration = Duration::from_millis(1);
/// How long the final drain waits for a straggling worker reply.
const FINAL_REPLY_WAIT: Duration = Duration::from_millis(500);

/// What one complete request line turned into.
pub enum LineAction {
    /// Nothing to answer (blank keep-alive line).
    Skip,
    /// A response line to write now (control plane, rejections,
    /// memory-resident cache hits).
    Inline(String),
    /// The response will arrive on this channel (queued data plane).
    /// The connection reads nothing further until it does.
    Pending(mpsc::Receiver<String>),
}

/// A line-protocol backend the poller front-end serves.
pub trait LineService: Send + Sync + 'static {
    /// Handles one complete line (newline stripped, may be blank).
    fn handle_line(&self, line: &[u8]) -> LineAction;
    /// The response for a line that exceeded the 64 KiB bound (the
    /// oversized line itself was drained, framing is intact).
    fn oversized_line(&self) -> String;
    /// Close connections idle past this. `None` (default) disables.
    fn idle_timeout(&self) -> Option<Duration> {
        None
    }
    /// The farewell line written before an idle close.
    fn idle_line(&self) -> String {
        String::new()
    }
    /// The response when a pending reply channel dies without a line
    /// (its worker was lost). Empty (default) closes silently.
    fn lost_line(&self) -> String {
        String::new()
    }
}

/// The state one poller thread parks on: its registration inbox and a
/// missed-wakeup-safe condvar flag.
#[derive(Default)]
struct PollerShared {
    inbox: Mutex<Vec<TcpStream>>,
    wake: Mutex<bool>,
    cv: Condvar,
}

impl PollerShared {
    fn notify(&self) {
        *self.wake.lock().expect("poller wake lock") = true;
        self.cv.notify_all();
    }

    fn take_new(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.inbox.lock().expect("poller inbox lock"))
    }

    /// Parks until notified or `timeout`; a notify that raced in before
    /// the park returns immediately (the flag, not the condvar, is the
    /// protocol).
    fn park(&self, timeout: Duration) {
        let mut woken = self.wake.lock().expect("poller wake lock");
        if !*woken {
            let (flag, _timed_out) =
                self.cv.wait_timeout(woken, timeout).expect("poller wake lock");
            woken = flag;
        }
        *woken = false;
    }
}

/// Wakes every poller in a pool. Cloneable and cheap; workers hold one
/// and nudge the pollers the moment a reply is sent, so a pending
/// response is flushed without waiting out a poll interval.
#[derive(Clone)]
pub struct Waker {
    pollers: Vec<Arc<PollerShared>>,
}

impl Waker {
    /// Notifies every poller thread in the pool.
    pub fn wake_all(&self) {
        for p in &self.pollers {
            p.notify();
        }
    }
}

/// Registers accepted sockets with a pool, round-robin. Cloneable so
/// the accept loop can own one while the pool handle lives elsewhere.
#[derive(Clone)]
pub struct Registrar {
    pollers: Vec<Arc<PollerShared>>,
    next: Arc<AtomicUsize>,
}

impl Registrar {
    /// Hands a freshly accepted socket to the next poller.
    pub fn register(&self, stream: TcpStream) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.pollers.len();
        self.pollers[i].inbox.lock().expect("poller inbox lock").push(stream);
        self.pollers[i].notify();
    }
}

/// A fixed pool of poller threads; sockets are registered round-robin.
pub struct PollerPool {
    pollers: Vec<Arc<PollerShared>>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    next: Arc<AtomicUsize>,
}

impl PollerPool {
    /// Spawns `n` poller threads (at least one) serving `service`,
    /// named `{name_prefix}-poll-{i}`.
    pub fn spawn(n: usize, service: Arc<dyn LineService>, name_prefix: &str) -> PollerPool {
        let stop = Arc::new(AtomicBool::new(false));
        let pollers: Vec<Arc<PollerShared>> =
            (0..n.max(1)).map(|_| Arc::new(PollerShared::default())).collect();
        let threads = pollers
            .iter()
            .enumerate()
            .map(|(i, shared)| {
                let shared = Arc::clone(shared);
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-poll-{i}"))
                    .spawn(move || poll_loop(&shared, &*service, &stop))
                    .expect("spawn poller")
            })
            .collect();
        PollerPool { pollers, threads, stop, next: Arc::new(AtomicUsize::new(0)) }
    }

    /// Hands a freshly accepted socket to the next poller.
    pub fn register(&self, stream: TcpStream) {
        self.registrar().register(stream);
    }

    /// A cloneable registration handle for the accept loop.
    pub fn registrar(&self) -> Registrar {
        Registrar { pollers: self.pollers.clone(), next: Arc::clone(&self.next) }
    }

    /// A handle that wakes every poller (give one to the workers).
    pub fn waker(&self) -> Waker {
        Waker { pollers: self.pollers.clone() }
    }

    /// How many poller threads are still running.
    pub(crate) fn threads(&self) -> usize {
        self.threads.iter().filter(|t| !t.is_finished()).count()
    }

    /// Stops the pool: each poller drains still-pending replies, flushes
    /// what it can and drops its connections. Call after the workers
    /// have exited so every pending reply has already been sent.
    pub fn stop_and_join(self) {
        self.stop.store(true, Ordering::SeqCst);
        for p in &self.pollers {
            p.notify();
        }
        for t in self.threads {
            t.join().expect("poller panicked");
        }
    }
}

/// Per-connection state: buffers, pacing and the at-most-one pending
/// reply.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// The current (unterminated) line already blew the bound; bytes
    /// are discarded until its newline, then one oversized error goes
    /// out.
    overflow: bool,
    outbuf: Vec<u8>,
    outpos: usize,
    pending: Option<mpsc::Receiver<String>>,
    idle_since: Instant,
    next_read: Instant,
    backoff: Duration,
    /// A farewell line is queued; drop the connection once it flushes.
    closing: bool,
}

/// One sweep's verdict for a connection.
enum Tick {
    /// Something happened; sweep again immediately.
    Progress,
    /// Nothing to do until this deadline (`None` = only a wakeup or new
    /// bytes matter).
    Idle(Option<Instant>),
    /// Close and forget the connection.
    Drop,
}

impl Conn {
    fn register(stream: TcpStream, now: Instant) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        Some(Conn {
            stream,
            inbuf: Vec::new(),
            overflow: false,
            outbuf: Vec::new(),
            outpos: 0,
            pending: None,
            idle_since: now,
            next_read: now,
            backoff: BACKOFF_MIN,
            closing: false,
        })
    }

    fn push_line(&mut self, line: &str) {
        self.outbuf.extend_from_slice(line.as_bytes());
        self.outbuf.push(b'\n');
    }

    fn reset_pace(&mut self, now: Instant) {
        self.backoff = BACKOFF_MIN;
        self.next_read = now;
        self.idle_since = now;
    }

    /// Queues a reply and re-arms the read pace on the short ramp: the
    /// peer's next request is likely only a round trip away.
    fn reply(&mut self, line: &str, now: Instant) {
        self.push_line(line);
        self.reset_pace(now);
        self.backoff = REARM_MIN;
    }

    fn flushed(&self) -> bool {
        self.outpos == self.outbuf.len()
    }

    /// Frames buffered bytes into lines and feeds them to the service,
    /// stopping at the first `Pending` (strict one-outstanding-request
    /// ordering). Returns whether any line was consumed.
    fn parse(&mut self, service: &dyn LineService, now: Instant) -> bool {
        let mut progress = false;
        while self.pending.is_none() && !self.closing {
            match self.inbuf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let line: Vec<u8> = self.inbuf.drain(..=pos).take(pos).collect();
                    progress = true;
                    if std::mem::take(&mut self.overflow) || line.len() > MAX_LINE {
                        let response = service.oversized_line();
                        self.reply(&response, now);
                        continue;
                    }
                    match service.handle_line(&line) {
                        LineAction::Skip => {}
                        LineAction::Inline(response) => self.reply(&response, now),
                        LineAction::Pending(rx) => self.pending = Some(rx),
                    }
                }
                None => {
                    if self.inbuf.len() > MAX_LINE {
                        // Discard, keep only the fact of the overflow;
                        // memory stays bounded however long the line.
                        self.overflow = true;
                        self.inbuf.clear();
                    }
                    break;
                }
            }
        }
        progress
    }

    /// Writes as much queued output as the socket accepts right now.
    fn flush(&mut self) -> io::Result<bool> {
        let mut wrote = false;
        while self.outpos < self.outbuf.len() {
            let _write = obs::span!("server.write");
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outpos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.flushed() && !self.outbuf.is_empty() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        Ok(wrote)
    }

    fn tick(&mut self, service: &dyn LineService, scratch: &mut [u8], now: Instant) -> Tick {
        let mut progress = false;

        // A worker finished this connection's request?
        if let Some(rx) = &self.pending {
            match rx.try_recv() {
                Ok(line) => {
                    self.reply(&line, now);
                    self.pending = None;
                    progress = true;
                }
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    let line = service.lost_line();
                    if line.is_empty() {
                        return Tick::Drop;
                    }
                    self.reply(&line, now);
                    self.pending = None;
                    progress = true;
                }
            }
        }

        // Bytes that arrived earlier may hold the next request.
        progress |= self.parse(service, now);

        // Read, on this connection's own pace.
        if self.pending.is_none() && !self.closing && now >= self.next_read {
            match self.stream.read(scratch) {
                Ok(0) => return Tick::Drop,
                Ok(n) => {
                    // Data-bearing reads only; the idle poll itself is
                    // not a protocol stage.
                    let read_at = Instant::now();
                    obs::observe!("server.read", read_at.saturating_duration_since(now));
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    self.reset_pace(now);
                    progress = true;
                    progress |= self.parse(service, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
                    self.next_read = now + self.backoff;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Tick::Drop,
            }
        }

        // Quiet past the idle timeout: one farewell line, then close.
        if !self.closing && self.pending.is_none() && self.inbuf.is_empty() && self.flushed() {
            if let Some(timeout) = service.idle_timeout() {
                if now.saturating_duration_since(self.idle_since) >= timeout {
                    let line = service.idle_line();
                    self.push_line(&line);
                    self.closing = true;
                    progress = true;
                }
            }
        }

        match self.flush() {
            Ok(wrote) => progress |= wrote,
            Err(_) => return Tick::Drop,
        }
        if self.closing && self.flushed() && self.pending.is_none() {
            return Tick::Drop;
        }
        if progress {
            Tick::Progress
        } else {
            Tick::Idle(self.next_deadline(service, now))
        }
    }

    /// The soonest moment this connection needs another look, `None`
    /// when only a worker wakeup or poller notify can change it.
    fn next_deadline(&self, service: &dyn LineService, now: Instant) -> Option<Instant> {
        let mut deadline: Option<Instant> = None;
        let mut merge = |t: Instant| {
            deadline = Some(deadline.map_or(t, |d| d.min(t)));
        };
        if !self.flushed() {
            merge(now + WRITE_RETRY);
        }
        if self.pending.is_none() && !self.closing {
            merge(self.next_read);
            if let Some(timeout) = service.idle_timeout() {
                merge(self.idle_since + timeout);
            }
        }
        deadline
    }

    /// Last chance at shutdown: collect a straggling reply, then flush
    /// blocking (with a timeout) so queued responses reach the peer.
    fn final_drain(mut self, service: &dyn LineService) {
        if let Some(rx) = self.pending.take() {
            match rx.recv_timeout(FINAL_REPLY_WAIT) {
                Ok(line) => self.push_line(&line),
                Err(_) => {
                    let line = service.lost_line();
                    if !line.is_empty() {
                        self.push_line(&line);
                    }
                }
            }
        }
        if self.outpos < self.outbuf.len() {
            let _ = self.stream.set_nonblocking(false);
            let _ = self.stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = self.stream.write_all(&self.outbuf[self.outpos..]);
            let _ = self.stream.flush();
        }
    }
}

/// One poller thread: sweep every connection, then park until the
/// earliest deadline or a wakeup.
fn poll_loop(shared: &PollerShared, service: &dyn LineService, stop: &AtomicBool) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            for conn in conns {
                conn.final_drain(service);
            }
            return;
        }
        let now = Instant::now();
        for stream in shared.take_new() {
            if let Some(conn) = Conn::register(stream, now) {
                conns.push(conn);
            }
        }
        let mut progress = false;
        let mut earliest: Option<Instant> = None;
        conns.retain_mut(|conn| match conn.tick(service, &mut scratch, now) {
            Tick::Drop => false,
            Tick::Progress => {
                progress = true;
                true
            }
            Tick::Idle(deadline) => {
                if let Some(t) = deadline {
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
                true
            }
        });
        if progress {
            // Another request may already be in flight from the peer;
            // yield (let it run on this core) and sweep again.
            std::thread::yield_now();
            continue;
        }
        let timeout = earliest
            .map(|t| t.saturating_duration_since(now))
            .unwrap_or(PARK_MAX)
            .min(PARK_MAX);
        shared.park(timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// Shouts every line back; `slow <ms>` answers through a worker
    /// thread after a delay (exercises the Pending path + waker).
    struct EchoService {
        waker: Mutex<Option<Waker>>,
        idle: Option<Duration>,
    }

    impl LineService for EchoService {
        fn handle_line(&self, line: &[u8]) -> LineAction {
            let text = String::from_utf8_lossy(line).to_string();
            if text.trim().is_empty() {
                return LineAction::Skip;
            }
            if let Some(ms) = text.strip_prefix("slow ").and_then(|v| v.parse::<u64>().ok()) {
                let (tx, rx) = mpsc::channel();
                let waker = self.waker.lock().unwrap().clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    let _ = tx.send("slow done".to_string());
                    if let Some(w) = waker {
                        w.wake_all();
                    }
                });
                return LineAction::Pending(rx);
            }
            LineAction::Inline(text.to_uppercase())
        }

        fn oversized_line(&self) -> String {
            "too long".to_string()
        }

        fn idle_timeout(&self) -> Option<Duration> {
            self.idle
        }

        fn idle_line(&self) -> String {
            "idle; bye".to_string()
        }
    }

    fn pool_on_loopback(idle: Option<Duration>) -> (PollerPool, std::net::SocketAddr, Arc<EchoService>) {
        let service = Arc::new(EchoService { waker: Mutex::new(None), idle });
        let pool = PollerPool::spawn(2, service.clone(), "test-echo");
        *service.waker.lock().unwrap() = Some(pool.waker());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pollers: Vec<Arc<PollerShared>> = pool.pollers.clone();
        std::thread::Builder::new()
            .name("test-echo-accept".to_string())
            .spawn(move || {
                let next = AtomicUsize::new(0);
                for stream in listener.incoming().flatten() {
                    let i = next.fetch_add(1, Ordering::Relaxed) % pollers.len();
                    pollers[i].inbox.lock().unwrap().push(stream);
                    pollers[i].notify();
                }
            })
            .unwrap();
        (pool, addr, service)
    }

    #[test]
    fn inline_lines_round_trip_and_oversize_keeps_framing() {
        let (pool, addr, _service) = pool_on_loopback(None);
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();

        conn.write_all(b"hello poller\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "HELLO POLLER");

        // The bound is inclusive: a line of exactly MAX_LINE bytes is
        // delivered ...
        let mut exact = vec![b'y'; MAX_LINE];
        exact.push(b'\n');
        conn.write_all(&exact).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "Y".repeat(MAX_LINE));

        // ... one byte more is oversized: drained and answered, and the
        // next request on the same connection still works (framing
        // intact).
        let mut big = vec![b'x'; MAX_LINE + 1];
        big.push(b'\n');
        big.extend_from_slice(b"after\n");
        conn.write_all(&big).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "too long");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "AFTER");

        drop(conn);
        pool.stop_and_join();
    }

    #[test]
    fn pending_replies_arrive_via_the_waker_and_preserve_order() {
        let (pool, addr, _service) = pool_on_loopback(None);
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // Both lines land in the connection's buffer at once; the
        // second must not be answered before the first resolves.
        conn.write_all(b"slow 40\nquick\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "slow done");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "QUICK");

        drop(conn);
        pool.stop_and_join();
    }

    /// Answers every line through a channel whose sender the test holds,
    /// so the test decides when the reply is ready.
    struct HeldReply {
        tx: Mutex<Option<mpsc::Sender<String>>>,
    }

    impl LineService for HeldReply {
        fn handle_line(&self, _line: &[u8]) -> LineAction {
            let (tx, rx) = mpsc::channel();
            *self.tx.lock().unwrap() = Some(tx);
            LineAction::Pending(rx)
        }

        fn oversized_line(&self) -> String {
            "too long".to_string()
        }
    }

    /// A `Conn` on the server end of a loopback pair, plus the client end.
    fn loopback_conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Conn::register(server, Instant::now()).unwrap(), client)
    }

    /// Ticks `conn` at its own read deadline until it stops reading: a
    /// request is outstanding or `budget` ticks ran out.
    fn tick_until_pending(conn: &mut Conn, service: &dyn LineService, budget: usize) {
        let mut scratch = [0u8; 256];
        for _ in 0..budget {
            if conn.pending.is_some() {
                return;
            }
            let now = conn.next_read.max(Instant::now());
            assert!(!matches!(conn.tick(service, &mut scratch, now), Tick::Drop));
            std::thread::sleep(Duration::from_micros(200));
        }
        panic!("the request never reached the service");
    }

    #[test]
    fn a_pending_reply_re_arms_the_next_read_on_the_short_ramp() {
        let service = HeldReply { tx: Mutex::new(None) };
        let (mut conn, mut client) = loopback_conn();
        client.write_all(b"request\n").unwrap();
        tick_until_pending(&mut conn, &service, 1_000);

        // The worker answers; the tick that queues the reply also reads
        // (finding nothing: the peer has not seen the reply yet).
        service.tx.lock().unwrap().take().unwrap().send("answer".to_string()).unwrap();
        let now = Instant::now();
        let mut scratch = [0u8; 256];
        assert!(matches!(conn.tick(&service, &mut scratch, now), Tick::Progress));
        assert!(conn.pending.is_none() && conn.flushed(), "reply queued and written");
        let due_in = conn.next_read.saturating_duration_since(now);
        assert!(
            due_in <= REARM_MIN * 2,
            "next read due {due_in:?} after a reply; the re-arm ramp starts at {REARM_MIN:?}"
        );
        assert_eq!(conn.backoff, REARM_MIN * 2, "one empty read doubles the ramp once");

        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "answer");
    }

    #[test]
    fn a_quiet_connection_rejoins_the_idle_schedule_and_reaches_the_cap() {
        let service = HeldReply { tx: Mutex::new(None) };
        let (mut conn, _client) = loopback_conn();
        let mut scratch = [0u8; 256];
        let mut now = Instant::now();
        conn.reply("unprompted", now);
        // Every tick lands exactly on the read deadline and reads
        // nothing, so each one is one `WouldBlock`.
        let mut empty_reads = 0;
        while conn.backoff < BACKOFF_MIN {
            now = conn.next_read;
            let _ = conn.tick(&service, &mut scratch, now);
            empty_reads += 1;
        }
        assert_eq!(empty_reads, 5, "the ramp hands over to the idle schedule in five reads");
        while conn.backoff < BACKOFF_MAX {
            now = conn.next_read;
            let _ = conn.tick(&service, &mut scratch, now);
            empty_reads += 1;
            assert!(empty_reads < 64, "backoff stalled at {:?}", conn.backoff);
        }
        assert_eq!(conn.backoff, BACKOFF_MAX);
        now = conn.next_read;
        let _ = conn.tick(&service, &mut scratch, now);
        assert_eq!(conn.backoff, BACKOFF_MAX, "the cap holds");
        assert_eq!(conn.next_read - now, BACKOFF_MAX);
    }

    #[test]
    fn idle_connections_get_the_farewell_line_then_eof() {
        let (pool, addr, _service) = pool_on_loopback(Some(Duration::from_millis(60)));
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();

        conn.write_all(b"ping\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "PING");

        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "idle; bye");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "closed after the farewell");

        pool.stop_and_join();
    }
}
