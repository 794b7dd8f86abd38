//! The gated benchmark of the served-query stack. See `README.md` for
//! what each workload and metric is for; `manifest` is the declared
//! surface, `run` one run of one workload.

pub mod inproc;
pub mod json;
pub mod manifest;
pub mod oracle;
pub mod pass;
pub mod probes;
pub mod run;
pub mod selfcheck;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
