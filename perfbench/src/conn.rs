//! A pipelined client connection built from the codec's public pieces.
//!
//! `vire_net::GatewayClient` is synchronous per call; an open-loop load
//! generator must send on a schedule while replies are still in flight,
//! and wait for a reply only until the next send is due. This wrapper
//! keeps one `FrameSink` for sends and one `FrameDecoder` for replies
//! and reads with a deadline.
//!
//! The deadline wait is `ppoll(2)`, declared here directly (the
//! workspace has no `libc`). A socket read timeout would not do: the
//! kernel rounds `SO_RCVTIMEO` up to whole scheduler ticks, which made
//! the generator wake milliseconds after a send was due.

use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits up to `timeout` for `stream` to become readable (or closed).
fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask; both
    // pointers outlive the call.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}
use vire_core::{BeaconEvent, LocationQuery, QueryResponse};
use vire_net::{
    decode_batch_ok, decode_hello_ok, decode_location, decode_stats_ok, BatchAck, Encoding,
    FrameDecoder, FrameKind, FrameSink, NetStats, MAX_FRAME_LEN,
};

/// One decoded server reply.
#[derive(Debug, Clone)]
pub enum Reply {
    Ack(BatchAck),
    Location(QueryResponse),
    Stats(NetStats),
    Bye,
}

pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    sink: FrameSink,
}

fn err(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connects and sends `HELLO` for the binary encoding without
    /// waiting for the answer (see [`Conn::handshake`]), so several
    /// connections can be admitted by one acceptor wake-up.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            decoder: FrameDecoder::new(MAX_FRAME_LEN),
            sink: FrameSink::new(),
        };
        conn.sink
            .hello(vire_core::ingest::WIRE_VERSION, Encoding::Binary);
        conn.sink.flush_to(&mut conn.stream)?;
        Ok(conn)
    }

    /// Waits for `HELLO_OK`.
    pub fn handshake(&mut self) -> io::Result<()> {
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(|e| err(e.to_string()))? {
                if frame.kind != FrameKind::HelloOk {
                    return Err(err(format!("expected HELLO_OK, got {:?}", frame.kind)));
                }
                decode_hello_ok(frame.body).map_err(|e| err(e.to_string()))?;
                return Ok(());
            }
            if self.decoder.read_from(&mut self.stream)? == 0 {
                return Err(err("server closed during HELLO".into()));
            }
        }
    }

    pub fn send_batch(&mut self, events: &[BeaconEvent]) -> io::Result<()> {
        self.sink.batch_events(events);
        self.sink.flush_to(&mut self.stream).map(|_| ())
    }

    pub fn send_query(&mut self, zone: u32, q: LocationQuery) -> io::Result<()> {
        self.sink.query(zone, q);
        self.sink.flush_to(&mut self.stream).map(|_| ())
    }

    pub fn send_stats(&mut self) -> io::Result<()> {
        self.sink.stats();
        self.sink.flush_to(&mut self.stream).map(|_| ())
    }

    pub fn send_bye(&mut self) -> io::Result<()> {
        self.sink.bye();
        self.sink.flush_to(&mut self.stream).map(|_| ())
    }

    /// The next reply, waiting at most until `deadline` (`None` waits
    /// indefinitely). `Ok(None)` means the deadline passed first.
    pub fn recv_until(&mut self, deadline: Option<Instant>) -> io::Result<Option<Reply>> {
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(|e| err(e.to_string()))? {
                let codec = |e: vire_net::CodecError| err(e.to_string());
                let reply = match frame.kind {
                    FrameKind::BatchOk => Reply::Ack(decode_batch_ok(frame.body).map_err(codec)?),
                    FrameKind::Location => {
                        Reply::Location(decode_location(frame.body).map_err(codec)?)
                    }
                    FrameKind::StatsOk => Reply::Stats(decode_stats_ok(frame.body).map_err(codec)?),
                    FrameKind::ByeOk => Reply::Bye,
                    other => return Err(err(format!("unexpected reply {other:?}"))),
                };
                return Ok(Some(reply));
            }
            if let Some(d) = deadline {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() || !readable(&self.stream, left)? {
                    return Ok(None);
                }
            }
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => return Err(err("server closed the connection".into())),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next reply, blocking.
    pub fn recv(&mut self) -> io::Result<Reply> {
        self.recv_until(None)?.ok_or_else(|| err("no reply".into()))
    }

    pub fn recv_ack(&mut self) -> io::Result<BatchAck> {
        match self.recv()? {
            Reply::Ack(a) => Ok(a),
            other => Err(err(format!("expected BATCH_OK, got {other:?}"))),
        }
    }

    pub fn query(&mut self, zone: u32, q: LocationQuery) -> io::Result<QueryResponse> {
        self.send_query(zone, q)?;
        match self.recv()? {
            Reply::Location(r) => Ok(r),
            other => Err(err(format!("expected LOCATION, got {other:?}"))),
        }
    }

    pub fn stats(&mut self) -> io::Result<NetStats> {
        self.send_stats()?;
        match self.recv()? {
            Reply::Stats(s) => Ok(s),
            other => Err(err(format!("expected STATS_OK, got {other:?}"))),
        }
    }

    pub fn bye(mut self) -> io::Result<()> {
        self.send_bye()?;
        match self.recv()? {
            Reply::Bye => Ok(()),
            other => Err(err(format!("expected BYE_OK, got {other:?}"))),
        }
    }
}
