//! Loopback serving benchmark for the MPI-RICAL daemon: seeded traffic
//! over the wire protocol against an in-process [`mpirical_server::Server`],
//! a correctness gate against the in-process reference service, and a
//! traced replay that times each layer through its public functions.
//!
//! Run it as `servebench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`; see `README.md` in this directory.

pub mod artifact;
pub mod check;
pub mod loopback;
pub mod replay;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod traffic;
