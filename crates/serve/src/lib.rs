//! `ddpa-serve` — a persistent demand-query server.
//!
//! The demand engine's economics reward long-lived processes: memoized
//! subgoals make the second query over a program far cheaper than the
//! first, but a one-shot CLI throws that warm state away. This crate
//! keeps it alive behind a TCP socket speaking line-delimited JSON
//! (hand-rolled on `std` alone — the reader/writer live in
//! [`ddpa_obs::json`]):
//!
//! * **sessions** — named, each one loaded [`ConstraintProgram`] plus a
//!   warm [`DemandEngine`](ddpa_demand::DemandEngine) whose memo table
//!   persists across requests ([`Session`]);
//! * **queries** — `points-to`, `pointed-to-by`, `may-alias`,
//!   `call-targets`, singly or in batches, all answered on the session's
//!   warm engine; a `parallel_query` request or a `parallel` batch runs
//!   each query on the frame scheduler (`ServeConfig::workers`);
//! * **incremental edits** — `add-constraints` appends to a live
//!   session, invalidates its memo table, and stamps every answer with a
//!   generation counter so clients can detect pre-edit answers;
//! * **robustness** — per-request budgets and wall-clock timeouts,
//!   bounded request lines with oversized-frame resync, in-flight
//!   backpressure, graceful shutdown.
//!
//! Protocol grammar, session lifecycle, error codes, and metric names
//! are documented in `docs/SERVER.md`.
//!
//! # Examples
//!
//! ```
//! use ddpa_serve::{proto, Client, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default(), ddpa_obs::Obs::new())?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! client.expect_ok(&proto::build::open("demo", "p = &o\nq = p\n", false, None))?;
//! let resp = client.expect_ok(&proto::build::query(
//!     "demo",
//!     &proto::QuerySpec::PointsTo { name: "q".into() },
//!     None,
//!     None,
//! ))?;
//! let pts = resp.get("result").and_then(|r| r.get("pts")).expect("has pts");
//! assert_eq!(pts.to_string(), "[\"o\"]");
//!
//! handle.shutdown();
//! thread.join().expect("server thread")?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`ConstraintProgram`]: ddpa_constraints::ConstraintProgram

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;
pub mod session;

pub use client::Client;
pub use proto::{ErrorCode, ProtoError, QuerySpec, Request};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{QueryAnswer, Session};
