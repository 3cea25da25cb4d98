//! **The async network edge** — turning the closed-loop serving harness
//! into an open HTTP service.
//!
//! Everything below `ah_net` answers queries in microseconds; this crate
//! makes those answers reachable over a socket while surviving what real
//! traffic does to a listener: slow clients, garbage bytes, pipelined
//! bursts, and load beyond capacity. It is deliberately dependency-free
//! (the build environment has no registry access — no tokio, no mio):
//!
//! * `sys`: a readiness poller over raw file descriptors, picked by
//!   the platform — `epoll(7)` via direct libc declarations on Linux,
//!   portable `poll(2)` on every other Unix (its unit tests run both on
//!   Linux) — plus a self-pipe waker for worker→loop signalling.
//! * [`http`]: an incremental HTTP/1.1 subset parser (GET, keep-alive,
//!   pipelining, header/body caps, never panics) and response builder.
//! * [`EdgeServer`]: the single-threaded event loop owning all sockets,
//!   handing parsed queries to [`ah_server::Server::serve_queue`]
//!   workers through the bounded MPMC queue. **Admission control falls
//!   out of the queue bound**: a full queue answers `429 Too Many
//!   Requests` + `Retry-After` instead of buffering, so memory stays
//!   bounded under any offered load.
//!
//! Wire protocol, overload semantics and tuning guidance live in
//! `docs/EDGE.md`. The serving path:
//!
//! ```text
//!   clients ⇄ TCP ⇄ event loop (parse, admission, ordered writes)
//!                      │ BoundedQueue::try_push   full → 429
//!                      ▼
//!                worker threads (Server::serve_queue, per-thread sessions,
//!                shared LRU cache + metrics)
//!                      │ completions + wake pipe
//!                      ▼
//!                event loop fills pipeline slots, writes in order
//! ```
//!
//! ```no_run
//! use ah_core::{AhIndex, BuildConfig};
//! use ah_net::{EdgeConfig, EdgeServer};
//! use ah_server::{AhBackend, Server, ServerConfig};
//!
//! let g = ah_data::fixtures::lattice(8, 8, 12);
//! let idx = AhIndex::build(&g, &BuildConfig::default());
//! let server = Server::new(ServerConfig::with_workers(4));
//! let edge = EdgeServer::bind("127.0.0.1:8080", EdgeConfig::default()).unwrap();
//! let handle = edge.handle(); // move to another thread: handle.shutdown()
//! # let _ = handle;
//! let report = edge.serve(&server, &AhBackend::new(&idx)).unwrap();
//! println!("accepted {} connections", report.connections);
//! ```

#[cfg(unix)]
pub mod blocking;
#[cfg(unix)]
mod edge;
#[cfg(unix)]
pub mod http;
#[cfg(unix)]
mod sys;

#[cfg(unix)]
pub use edge::{EdgeConfig, EdgeHandle, EdgeMetrics, EdgeReport, EdgeServer, STATUSES};
