//! The TCP front: a `std::net::TcpListener` accept loop over the
//! [`wire`] protocol, dispatching into a [`ShardedNavigator`].
//!
//! One thread per connection (connections are long-lived query pipes,
//! not ephemeral HTTP hits; the shard worker pools bound actual query
//! concurrency). Each connection thread owns four reused buffers —
//! frame-in, path, payload scratch and frame-out — so a pipelined
//! client costs zero steady-state allocations on the server side.
//!
//! ## Failure semantics
//!
//! Every inbound frame gets exactly one response frame, always typed:
//!
//! * decodes + executes → an answer or a [`ServeError`] status;
//! * checksum-valid but unknown opcode / bad payload → the error
//!   status, connection stays open (the frame boundary was sound);
//! * version skew with the frame otherwise intact → a typed
//!   [`wire::status::ERR_UNSUPPORTED`] response and the connection
//!   stays open — the peer is a well-formed client on another protocol
//!   revision, not a corrupt stream;
//! * bad magic, bad checksum, truncation, oversized length → a
//!   [`wire::status::ERR_WIRE`] frame, then the connection closes (the
//!   byte stream can no longer be trusted);
//! * a panic while serving a connection is caught by the connection
//!   thread; a best-effort `ERR_INTERNAL` frame is sent before close.
//!
//! "Never a hang": reads carry a socket timeout, so a half-dead peer
//! cannot pin a connection thread past shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::shard::ShardedNavigator;
use crate::wire::{self, WireError};
use crate::{Op, QueryOutcome, ServeError};

/// How long a connection read blocks before re-checking the shutdown
/// flag. Also the bound on how long shutdown waits for a quiet
/// connection.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Reads one length-prefixed frame body into `body` (cleared and
/// resized, capacity reused). Returns `Ok(false)` on clean EOF before
/// a prefix byte.
///
/// The length prefix is validated against [`wire::MAX_FRAME`] *before*
/// `body` is resized, so a hostile prefix (up to `u32::MAX`) can never
/// drive an allocation — the ordering is pinned by unit tests below.
///
/// Generic over `Read` so the check can be exercised against in-memory
/// cursors, not just live sockets.
///
/// # Errors
///
/// * `Err(ReadFrameError::Io)` on stream errors (including timeouts);
/// * `Err(ReadFrameError::Oversized)` when the prefix exceeds
///   [`wire::MAX_FRAME`] — the stream is unrecoverable after this.
pub fn read_frame<R: Read>(stream: &mut R, body: &mut Vec<u8>) -> Result<bool, ReadFrameError> {
    let mut prefix = [0u8; 4];
    match stream.read(&mut prefix) {
        Ok(0) => return Ok(false),
        Ok(n) if n < 4 => {
            stream
                .read_exact(&mut prefix[n..])
                .map_err(ReadFrameError::Io)?;
        }
        Ok(_) => {}
        Err(e) => return Err(ReadFrameError::Io(e)),
    }
    let len = u32::from_le_bytes(prefix);
    if len > wire::MAX_FRAME {
        return Err(ReadFrameError::Oversized { len });
    }
    let body_len = usize::try_from(len).map_err(|_| ReadFrameError::Oversized { len })?;
    body.clear();
    body.resize(body_len, 0);
    stream.read_exact(body).map_err(ReadFrameError::Io)?;
    Ok(true)
}

/// Failure modes of [`read_frame`].
#[derive(Debug)]
pub enum ReadFrameError {
    /// The socket failed (or timed out) mid-frame.
    Io(std::io::Error),
    /// The length prefix exceeds [`wire::MAX_FRAME`].
    Oversized {
        /// The claimed body length.
        len: u32,
    },
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "socket failed mid-frame: {e}"),
            ReadFrameError::Oversized { len } => {
                write!(
                    f,
                    "length prefix {len} exceeds MAX_FRAME {}",
                    wire::MAX_FRAME
                )
            }
        }
    }
}

impl std::error::Error for ReadFrameError {}

/// A handle to a running server: its bound address plus shutdown
/// control. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the listener and joins every thread.
    /// Connection threads exit at their next read timeout at the
    /// latest.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if the
        // connect fails the listener is already gone, which is fine.
        let _poke = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _join = t.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut guard = self
                .conn_threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for t in drained {
            let _join = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// The TCP server: binds, accepts, and serves the wire protocol over
/// a [`ShardedNavigator`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept
    /// loop.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn start<A: ToSocketAddrs>(
        engine: Arc<ShardedNavigator>,
        addr: A,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("hopspan-serve-accept".to_string())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = incoming else {
                        continue;
                    };
                    let engine = Arc::clone(&engine);
                    let conn_stop = Arc::clone(&accept_stop);
                    let spawned = std::thread::Builder::new()
                        .name("hopspan-serve-conn".to_string())
                        .spawn(move || serve_connection(&engine, stream, &conn_stop));
                    if let Ok(handle) = spawned {
                        let mut conns = accept_conns
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        // Join finished connections so the list holds
                        // live threads only, not one handle per
                        // connection ever accepted.
                        for done in conns.extract_if(.., |t| t.is_finished()) {
                            let _join = done.join();
                        }
                        conns.push(handle);
                    }
                }
            })?;

        Ok(ServerHandle {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }
}

/// Serves one connection until EOF, unrecoverable wire corruption,
/// shutdown, or idle timeout. Panics inside are contained here.
fn serve_connection(engine: &ShardedNavigator, mut stream: TcpStream, stop: &AtomicBool) {
    // Timeout-setting failure means the socket is already dead;
    // nothing to serve.
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        connection_loop(engine, &mut stream, stop)
    }));
    if outcome.is_err() {
        // Contained connection-thread panic: tell the peer before
        // closing rather than vanishing.
        let mut frame = Vec::new();
        wire::encode_error_response_into(0, wire::opcode::STATS, ServeError::Internal, &mut frame);
        let _best_effort = stream.write_all(&frame);
    }
    let _close = stream.shutdown(Shutdown::Both);
}

fn connection_loop(engine: &ShardedNavigator, stream: &mut TcpStream, stop: &AtomicBool) {
    let mut body: Vec<u8> = Vec::with_capacity(256);
    let mut path: Vec<usize> = Vec::with_capacity(64);
    let mut frame_out: Vec<u8> = Vec::with_capacity(512);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(stream, &mut body) {
            Ok(true) => {}
            Ok(false) => return, // clean EOF
            Err(ReadFrameError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                // Idle tick: loop to re-check the shutdown flag. A
                // timeout *mid-frame* desynchronizes the stream, but
                // read_frame only returns WouldBlock from the first
                // byte of the prefix; partial reads use read_exact,
                // whose timeout surfaces as UnexpectedEof on some
                // platforms and closes the connection below.
                continue;
            }
            Err(ReadFrameError::Io(_)) => return,
            Err(ReadFrameError::Oversized { .. }) => {
                // The peer's framing is hostile or broken; answer
                // typed and close.
                frame_out.clear();
                wire::encode_wire_error_into(0, &mut frame_out);
                let _best_effort = stream.write_all(&frame_out);
                return;
            }
        }
        frame_out.clear();
        let keep_open = answer_frame(engine, &body, &mut path, &mut frame_out);
        if stream.write_all(&frame_out).is_err() {
            return;
        }
        if !keep_open {
            return;
        }
    }
}

/// Builds the response frame for one inbound body. Returns whether the
/// connection can keep going (`false` after framing-level corruption).
fn answer_frame(
    engine: &ShardedNavigator,
    body: &[u8],
    path: &mut Vec<usize>,
    frame_out: &mut Vec<u8>,
) -> bool {
    let view = match wire::decode_frame(body) {
        Ok(v) => v,
        Err(WireError::BadVersion { .. }) => {
            // Version skew is a *protocol* mismatch, not stream
            // corruption: the frame's length, magic and checksum all
            // held, so the peer is a well-formed client speaking an
            // older (or newer) revision. Answer with the typed
            // `ERR_UNSUPPORTED` status and keep the connection open so
            // the client can log a clean "upgrade me" error instead of
            // a dropped socket. The request id sits at a
            // version-invariant offset, so the reply still correlates.
            let request_id = wire::request_id_best_effort(body);
            let opcode = body.get(6).copied().unwrap_or(wire::opcode::STATS);
            wire::encode_error_response_into(
                request_id,
                opcode,
                ServeError::Unsupported { opcode },
                frame_out,
            );
            return true;
        }
        Err(_) => {
            // Magic/checksum/truncation failure: the stream can't be
            // trusted beyond this frame.
            wire::encode_wire_error_into(0, frame_out);
            return false;
        }
    };
    // Snapshot opcodes are answered at the dispatch layer, like
    // `Stats`: they touch the filesystem and the whole engine, not a
    // single shard queue, and they are not part of the [`Op`] request
    // enum (which models per-point queries).
    if view.opcode == wire::opcode::SNAPSHOT || view.opcode == wire::opcode::LOAD_SNAPSHOT {
        if !view.payload.is_empty() {
            wire::encode_error_response_into(
                view.request_id,
                view.opcode,
                ServeError::BadRequest,
                frame_out,
            );
            return true;
        }
        let result = if view.opcode == wire::opcode::SNAPSHOT {
            engine.write_snapshot()
        } else {
            engine.load_snapshot_verify()
        };
        match result {
            Ok(digest) => wire::encode_snapshot_response_into(
                view.request_id,
                view.opcode,
                digest.bytes,
                digest.checksum,
                frame_out,
            ),
            Err(e) => {
                wire::encode_error_response_into(view.request_id, view.opcode, e, frame_out);
            }
        }
        return true;
    }
    let op = match wire::decode_request(&view) {
        Ok(op) => op,
        Err(WireError::UnknownOpcode { got }) => {
            // Frame boundary was sound; answer typed and keep going.
            wire::encode_error_response_into(
                view.request_id,
                got,
                ServeError::Unsupported { opcode: got },
                frame_out,
            );
            return true;
        }
        Err(_) => {
            wire::encode_error_response_into(
                view.request_id,
                view.opcode,
                ServeError::BadRequest,
                frame_out,
            );
            return true;
        }
    };
    match op {
        Op::Stats => {
            // Stats is answered at the dispatch layer: it reads
            // lock-free counters, so routing it through a shard queue
            // would only add latency noise to the numbers it reports.
            let snap = engine.snapshot();
            wire::encode_stats_response_into(view.request_id, &snap, frame_out);
        }
        _ => match engine.call_with_epoch(op, path) {
            Ok((outcome @ (QueryOutcome::Full | QueryOutcome::Degraded { .. }), epoch)) => {
                wire::encode_path_response_into(
                    view.request_id,
                    view.opcode,
                    outcome,
                    epoch,
                    path,
                    frame_out,
                );
            }
            Ok((QueryOutcome::Mutation { id, epoch }, _)) => {
                wire::encode_mutation_response_into(
                    view.request_id,
                    view.opcode,
                    id,
                    epoch,
                    frame_out,
                );
            }
            Ok((QueryOutcome::Stats, _)) => {
                let snap = engine.snapshot();
                wire::encode_stats_response_into(view.request_id, &snap, frame_out);
            }
            Err(e) => {
                wire::encode_error_response_into(view.request_id, view.opcode, e, frame_out);
            }
        },
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that yields at most `chunk` bytes per `read`, to drive
    /// the partial-prefix path.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_frame_round_trips_a_small_frame() {
        let mut data = 3u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let mut cur = Cursor::new(data);
        let mut body = Vec::new();
        assert!(read_frame(&mut cur, &mut body).unwrap());
        assert_eq!(body, [0xAA, 0xBB, 0xCC]);
        // Next read sees clean EOF.
        assert!(!read_frame(&mut cur, &mut body).unwrap());
    }

    #[test]
    fn read_frame_reassembles_a_split_prefix() {
        let mut data = 2u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2]);
        let mut r = Chunked {
            data,
            pos: 0,
            chunk: 1,
        };
        let mut body = Vec::new();
        assert!(read_frame(&mut r, &mut body).unwrap());
        assert_eq!(body, [1, 2]);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_the_buffer_grows() {
        // A hostile length prefix must be rejected *before* `body` is
        // resized: the buffer's capacity stays untouched, proving no
        // attacker-sized allocation happened.
        for hostile in [wire::MAX_FRAME + 1, u32::MAX] {
            let mut cur = Cursor::new(hostile.to_le_bytes().to_vec());
            let mut body = Vec::new();
            match read_frame(&mut cur, &mut body) {
                Err(ReadFrameError::Oversized { len }) => assert_eq!(len, hostile),
                other => panic!("expected Oversized, got {other:?}"),
            }
            assert_eq!(body.capacity(), 0, "rejection must precede the resize");
        }
    }

    #[test]
    fn max_frame_exactly_is_accepted() {
        let mut data = wire::MAX_FRAME.to_le_bytes().to_vec();
        data.extend(std::iter::repeat_n(0u8, wire::MAX_FRAME as usize));
        let mut cur = Cursor::new(data);
        let mut body = Vec::new();
        assert!(read_frame(&mut cur, &mut body).unwrap());
        assert_eq!(body.len(), wire::MAX_FRAME as usize);
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let points: Vec<Vec<f64>> = (0..16).map(|i| vec![f64::from(i)]).collect();
        let params = crate::BackendParams {
            build_router: false,
            build_ft: false,
            ..crate::BackendParams::default()
        };
        let engine = ShardedNavigator::replicated(
            &hopspan_metric::EuclideanSpace::from_points(&points),
            &params,
            crate::ServeConfig::default(),
        )
        .unwrap();
        let server = Server::start(Arc::new(engine), "127.0.0.1:0").unwrap();
        let held = TcpStream::connect(server.local_addr()).unwrap();
        held.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for _ in 0..128 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        // Each accept reaps the connections that have closed by then;
        // probe until the closed ones are gone.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            drop(TcpStream::connect(server.local_addr()).unwrap());
            let live = server.conn_threads.lock().unwrap().len();
            if live <= 4 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{live} connection handles held after 130 connections"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // Shutdown still joins the live connection: its thread closes
        // the socket on the way out, so the client reads EOF.
        server.shutdown();
        let mut byte = [0u8; 1];
        assert_eq!((&held).read(&mut byte).unwrap(), 0);
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let mut data = 8u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3]); // 3 of the promised 8
        let mut cur = Cursor::new(data);
        let mut body = Vec::new();
        assert!(matches!(
            read_frame(&mut cur, &mut body),
            Err(ReadFrameError::Io(_))
        ));
    }
}
