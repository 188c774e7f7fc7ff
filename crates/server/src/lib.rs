//! Ferry's network edge: database-supported program execution *as a
//! service*.
//!
//! Everything below the wire already existed — `Connection::prepare`'s
//! content-addressed plan cache, MVCC snapshots for lock-free readers,
//! the SQL front end, and a Prometheus registry with no port to serve
//! it. This crate adds the missing edge: a threaded TCP server speaking
//! a length-prefixed, CRC-framed binary protocol (the exact
//! `ferry-storage` frame and codec formats, lifted from disk onto the
//! socket), per-connection sessions holding prepared statements over a
//! shared database, and admission control so overload degrades into
//! typed `Busy`/`QueueFull` refusals instead of collapse.
//!
//! Module map:
//!
//! * [`frame`] — `[len][crc32][payload]` frames over a byte stream;
//! * [`proto`] — request/response messages and their binary encoding;
//! * [`session`] — per-connection statement registry, SQL compilation
//!   through the shared plan cache, the `ferry.connections` view;
//! * [`server`] — accept loop, session threads that run their own
//!   statements behind a statement-slot gate, graceful shutdown;
//! * [`client`] — a small blocking client used by tests, benches and
//!   `examples/client.rs`.

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, ResultSet};
pub use frame::{FrameError, MAX_WIRE_LEN};
pub use proto::{ErrorCode, Request, Response, PROTO_VERSION};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::SessionRegistry;
