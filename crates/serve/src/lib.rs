//! `glaive-serve`: a long-lived batched-inference model server.
//!
//! The pipeline crates answer "how vulnerable is this program?" by
//! rebuilding everything from scratch per invocation. This crate turns the
//! trained estimator into a *service*: load a GraphSAGE model once, then
//! answer per-instruction vulnerability queries over TCP at serving
//! latency — no fault injection, no retraining, graph extraction amortised
//! across requests.
//!
//! Architecture (see `DESIGN.md` §11 and §15):
//!
//! - [`protocol`] — the `GLVSRV02` length-prefixed, checksummed wire
//!   format; every malformed frame decodes to a typed
//!   [`ProtocolError`], never a panic.
//! - [`cache`] — a content-addressed, sharded LRU of prepared programs
//!   (CDFG + features), keyed by [`program_fingerprint`].
//! - [`batch`] — request coalescing: the batcher drains every pending
//!   request and runs one forward pass per program on one reused
//!   workspace, each pass bit-identical to serial inference.
//! - [`server`] — a readiness-driven event loop (one poll thread owns
//!   every socket, requests pipeline per connection, a bounded admission
//!   queue sheds overload as typed `Busy` replies), the
//!   graph-preparation worker pool and the batcher thread, with
//!   `RunControl`-style cooperative shutdown and
//!   [`Stage::Inference`](glaive::telemetry::Stage) telemetry.
//! - [`client`] — a blocking client used by the CLI `query` subcommand
//!   and the differential tests, plus a retrying [`ResilientClient`]
//!   that honors `Busy` backoff hints.
//!
//! # Example
//!
//! ```no_run
//! use glaive_serve::{Client, ProgramSpec, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let model: glaive_gnn::GraphSage = unimplemented!();
//! let handle = Server::bind(model, "127.0.0.1:0", ServerConfig::default())?.spawn();
//! let mut client = Client::connect(handle.addr())?;
//! let spec = ProgramSpec::Suite { name: "dijkstra".into(), seed: 7 };
//! let reply = client.predict(spec, 8, 10, false)?;
//! println!("protect PCs {:?}", reply.top_k);
//! client.shutdown_server()?;
//! handle.join()?;
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use batch::{BatchResult, BatchWorkspace, JobQueue};
pub use cache::{program_fingerprint, GraphCache, PreparedProgram};
pub use client::{Client, ClientError, ClientReport, ResilientClient};
pub use protocol::{
    BudgetItem, BudgetReply, ErrorCode, PredictReply, ProgramSpec, ProtocolError, Request,
    Response, StatsReply, WireTuple,
};
pub use server::{ServeError, Server, ServerConfig, ServerHandle};
