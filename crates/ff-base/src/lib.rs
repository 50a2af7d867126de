//! # ff-base — foundation types for the FlexFetch simulation stack
//!
//! Shared, dependency-light vocabulary used by every other crate in the
//! workspace:
//!
//! * [`SimTime`] / [`Dur`] — fixed-point microsecond simulation time.
//!   All event ordering in the simulator is integer arithmetic, so a run is
//!   bit-reproducible for a given seed on any platform.
//! * [`Joules`] / [`Watts`] — energy bookkeeping. Energy is accumulated as
//!   `f64` joules; accumulation happens single-threaded inside one
//!   simulation, which keeps it deterministic.
//! * [`Bytes`] / [`BytesPerSec`] — data sizes and transfer rates, with the
//!   conversions the paper uses (disk bandwidth quoted in MB/s, wireless in
//!   Mbit/s).
//! * [`seeded_rng`] — one-line deterministic RNG construction used by all
//!   workload generators.
//!
//! ```
//! use ff_base::{Bytes, BytesPerSec, Dur, SimTime, Watts};
//!
//! // How long does a 128 KiB transfer take at 11 Mbps, and what does the
//! // receive power cost over it?
//! let bw = BytesPerSec::from_mbit_per_sec(11.0);
//! let t = bw.transfer_time(Bytes::kib(128));
//! let energy = Watts(2.61) * t;
//! assert!((t.as_secs_f64() - 0.0953).abs() < 1e-3);
//! assert!((energy.get() - 0.2488).abs() < 1e-3);
//!
//! // Instants and spans are distinct types; arithmetic is integer µs.
//! let start = SimTime::from_secs(5);
//! assert_eq!((start + Dur::from_millis(1500)) - start, Dur::from_millis(1500));
//! ```

#![warn(missing_docs)]

pub mod checked;
pub mod dist;
pub mod energy;
pub mod json;
pub mod rate;
pub mod rng;
pub mod size;
pub mod time;

pub use dist::{Dist, Sample};
pub use energy::{Joules, Watts};
pub use rate::BytesPerSec;
pub use rng::{derive_seed, prior_run_seed, seeded_rng, split_seed, task_rng, SimRng};
pub use size::Bytes;
pub use time::{Dur, SimTime};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the FlexFetch stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A trace line or profile file failed to parse.
    Parse {
        /// 1-based line number where parsing failed (0 if unknown).
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// A request referenced a file that is not in the file set
    /// (`FileSet` lives in `ff-trace`; the error is shared here so every
    /// layer can report it).
    UnknownFile(u64),
    /// A request fell outside the bounds of its file.
    OutOfBounds {
        /// The file (inode) being accessed.
        inode: u64,
        /// Requested end offset.
        end: u64,
        /// Actual file size.
        size: u64,
    },
    /// Configuration rejected (e.g. zero bandwidth, empty trace).
    Config(String),
    /// Underlying I/O error converted to a string (keeps `Error: Eq`).
    Io(String),
    /// A fault-injection plan was rejected (zero-length outage,
    /// non-finite bandwidth, empty disk storm, …).
    Fault(String),
    /// An internal engine failure that is not the caller's fault
    /// (e.g. a sweep worker thread panicked).
    Internal(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            Error::UnknownFile(inode) => write!(f, "unknown file inode {inode}"),
            Error::OutOfBounds { inode, end, size } => {
                write!(
                    f,
                    "access beyond EOF on inode {inode}: end {end} > size {size}"
                )
            }
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Io(msg) => write!(f, "I/O error: {msg}"),
            Error::Fault(msg) => write!(f, "invalid fault plan: {msg}"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}
