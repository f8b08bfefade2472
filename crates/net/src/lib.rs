//! The network serving fabric: TCP transport for the VIRE location
//! server.
//!
//! PR 9's [`vire_sim::IngestServer`] stops at the process boundary —
//! beacon bursts enter through in-process calls. This crate puts a real
//! socket in front of it, built entirely on `std::net` (the workspace is
//! offline/vendored — no async runtime):
//!
//! - [`codec`] — a length-prefixed binary frame protocol for beacon
//!   batches, location queries, and their replies. Wire v2 semantics are
//!   preserved exactly; trace-schema JSON is accepted as a negotiated
//!   fallback so existing traces replay unchanged. Decode runs out of a
//!   per-connection reusable buffer ([`FrameDecoder`]) so the steady
//!   state allocates nothing, and replies accumulate in a [`FrameSink`]
//!   that flushes whole bursts with one vectored write.
//! - [`server`] — [`NetServer`]: a listener plus thread-per-gateway
//!   connections. Each connection decodes, validates and routes a batch
//!   by campus-frame reader id ([`ReaderRoute`]) straight into per-zone
//!   lossless staging buffers, and the zone's driver smooths every staged
//!   reading through one [`vire_sim::IngestServer`] pipeline per zone.
//! - [`client`] — [`GatewayClient`]: the load-generating counterpart
//!   used by the oracle tests, the `net_throughput` bench, and any
//!   external gateway.
//! - [`shutdown`] — a tiny SIGINT latch (no `libc` crate; direct
//!   `signal(2)` FFI) so `vire-repro serve --listen` can drain in-flight
//!   frames and print final accounting on ctrl-c.
//!
//! ## Accounting across the fabric
//!
//! Nothing between the socket and the smoothing filters merges or drops
//! a reading, so the ledger is one identity: every event accepted from a
//! frame is delivered to its zone's smoothing table. [`NetStats`] carries
//! both counts and [`NetStats::balanced`] checks them; the identity holds
//! exactly whenever no reading is staged for a drive (every `STATS`
//! request and every shutdown drives every zone first).
//!
//! ## Failure domains
//!
//! A malformed or truncated frame (bad length prefix, short read,
//! invalid wire version, non-finite time or RSSI, unroutable reader)
//! closes **only** that gateway's connection and increments [`NetStats::protocol_errors`];
//! the shared zone state is never poisoned and other gateways stream on
//! undisturbed.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod codec;
pub mod server;
pub mod shutdown;

pub use client::{ClientError, GatewayClient};
pub use codec::{
    decode_batch_events, decode_batch_ok, decode_hello, decode_hello_ok, decode_location,
    decode_query, decode_stats_ok, BatchAck, CodecError, Encoding, Frame, FrameDecoder, FrameKind,
    FrameSink, Hello, HelloOk, QueryFrame, EVENT_LEN, HEADER_LEN, MAGIC, MAX_FRAME_LEN,
    PROTO_VERSION,
};
pub use server::{NetConfig, NetServer, ReaderRoute, ServerError};
pub use shutdown::{install_sigint, reset_sigint, sigint_pending, trigger_sigint};

use std::fmt;

/// Serving-fabric accounting: the connection-level counters plus the
/// readings every zone pipeline has smoothed. Snapshot via
/// [`server::NetServer::stats`] or over the wire via
/// [`GatewayClient::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Beacon events accepted from gateway frames (decoded, validated
    /// and routed).
    pub accepted: u64,
    /// Events smoothed by a zone pipeline.
    pub delivered: u64,
    /// Events merged away before smoothing. Always 0 — the serving path
    /// is lossless; kept so the `STATS_OK` layout is unchanged.
    pub coalesced: u64,
    /// Events dropped before smoothing. Always 0, as `coalesced`.
    pub lagged: u64,
    /// Connections closed for protocol violations (malformed frame, bad
    /// length prefix, invalid wire version, non-finite time or RSSI,
    /// unroutable reader, …).
    pub protocol_errors: u64,
    /// `accept(2)` failures other than the non-blocking listener's idle
    /// `WouldBlock` tick. A steadily climbing count means the listener is
    /// unhealthy (fd exhaustion, dead socket) — the server keeps serving
    /// existing gateways but cannot admit new ones.
    pub accept_errors: u64,
    /// Gateway connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames processed across all connections.
    pub frames: u64,
    /// Location queries answered.
    pub queries: u64,
}

impl NetStats {
    /// Whether the accounting identity
    /// `accepted == delivered + lagged + coalesced` holds (with the last
    /// two always 0: every accepted event was smoothed). True whenever
    /// no reading is staged (after `STATS` or shutdown); mid-stream a
    /// snapshot may be transiently unbalanced because readings wait in a
    /// zone's staging buffer for its next drive.
    pub fn balanced(&self) -> bool {
        self.accepted == self.delivered + self.lagged + self.coalesced
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted {}, delivered {} ({}); \
             protocol_errors {}, accept_errors {}, connections {}, frames {}, queries {}",
            self.accepted,
            self.delivered,
            if self.balanced() {
                "balanced"
            } else {
                "UNBALANCED"
            },
            self.protocol_errors,
            self.accept_errors,
            self.connections,
            self.frames,
            self.queries,
        )
    }
}
