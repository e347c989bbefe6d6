//! One client connection speaking the `hopspan_serve::wire` protocol.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use hopspan_serve::wire::{self, Response};
use hopspan_serve::{read_frame, MetricsSnapshot, Op, QueryOutcome, ServeError};

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// A typed service error other than a shed.
    Typed(ServeError),
    /// Shed at admission (`Overloaded`).
    Shed,
    /// The server rejected our frame, or its reply did not decode or
    /// correlate.
    Wire,
    /// The connection broke.
    Dropped,
}

/// The decoded reply to one request. A path answer leaves its path in
/// [`Conn::path`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// A path answer from the given epoch (`0` on static engines).
    Path {
        /// Epoch id echoed by the server.
        epoch: u64,
        /// Whether the answer was degraded (outside the contract).
        degraded: bool,
    },
    /// A committed mutation.
    Mutation {
        /// The inserted or removed id.
        id: u32,
        /// The epoch current at commit.
        epoch: u64,
    },
    /// A metrics snapshot.
    Stats(MetricsSnapshot),
    /// A failed request.
    Failed(Failure),
}

/// Instants a traced call marks between its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The request frame is encoded.
    Encoded,
    /// The reply frame has been read off the socket.
    Received,
}

/// A blocking client connection with reused buffers.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
    body: Vec<u8>,
    next_id: u64,
    /// The path of the last path answer.
    pub path: Vec<u32>,
    /// Request bytes written (length prefixes included).
    pub bytes_out: u64,
    /// Reply bytes read (length prefixes included).
    pub bytes_in: u64,
    /// Replies read.
    pub replies: u64,
}

impl Conn {
    /// Connects to the benchmark server on loopback.
    ///
    /// # Errors
    ///
    /// Connect or socket-option failures.
    pub fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        // A wedged server must not hang the run past its time limit.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            frame: Vec::with_capacity(256),
            body: Vec::with_capacity(512),
            next_id: 1,
            path: Vec::with_capacity(64),
            bytes_out: 0,
            bytes_in: 0,
            replies: 0,
        })
    }

    /// Sends `op` and waits for its reply.
    pub fn call(&mut self, op: &Op) -> Reply {
        self.call_marked(op, |_| {})
    }

    /// Like [`Conn::call`], calling `mark` at each stage boundary.
    pub fn call_marked(&mut self, op: &Op, mut mark: impl FnMut(Mark)) -> Reply {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        wire::encode_request_into(id, op, &mut self.frame);
        mark(Mark::Encoded);
        if self.stream.write_all(&self.frame).is_err() {
            return Reply::Failed(Failure::Dropped);
        }
        self.bytes_out += self.frame.len() as u64;
        match read_frame(&mut self.stream, &mut self.body) {
            Ok(true) => {}
            Ok(false) | Err(_) => return Reply::Failed(Failure::Dropped),
        }
        mark(Mark::Received);
        self.bytes_in += 4 + self.body.len() as u64;
        self.replies += 1;
        let Ok(view) = wire::decode_frame(&self.body) else {
            return Reply::Failed(Failure::Wire);
        };
        if view.request_id != id {
            return Reply::Failed(Failure::Wire);
        }
        match wire::decode_response(&view) {
            Ok(Response::Path {
                outcome,
                epoch,
                path,
            }) => {
                self.path = path;
                Reply::Path {
                    epoch,
                    degraded: matches!(outcome, QueryOutcome::Degraded { .. }),
                }
            }
            Ok(Response::Mutation { id, epoch }) => Reply::Mutation { id, epoch },
            Ok(Response::Stats(s)) => Reply::Stats(s),
            Ok(Response::Error(ServeError::Overloaded { .. })) => Reply::Failed(Failure::Shed),
            Ok(Response::Error(e)) => Reply::Failed(Failure::Typed(e)),
            Ok(Response::Snapshot { .. } | Response::WireRejected) | Err(_) => {
                Reply::Failed(Failure::Wire)
            }
        }
    }
}
