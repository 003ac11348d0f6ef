//! Shared command-line plumbing for the workspace examples.
//!
//! Every runnable example used to hand-roll the same backend-flag scan;
//! this module is the one copy. It also gives every example a `--help`
//! screen for free:
//!
//! ```no_run
//! let backend = expred::cli::ExampleCli::new("quickstart", "the paper's running example")
//!     .parse_backend();
//! println!("{}", backend.banner());
//! let executor = backend.executor();
//! ```

use expred_core::QueryEngine;
use expred_exec::{Executor, Sequential, WorkerPool};

/// Which executor backend an example should run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One probe at a time on the calling thread (the default).
    #[default]
    Sequential,
    /// The persistent work-stealing worker pool (`--pool`).
    Pool,
}

impl Backend {
    /// The one-line banner the examples print before running.
    pub fn banner(self) -> String {
        match self {
            Backend::Sequential => {
                "executor backend: sequential (pass --pool to fan out)".to_owned()
            }
            Backend::Pool => format!(
                "executor backend: worker_pool ({} persistent workers)",
                WorkerPool::new().threads()
            ),
        }
    }

    /// Builds the executor.
    pub fn executor(self) -> Box<dyn Executor> {
        match self {
            Backend::Sequential => Box::new(Sequential),
            Backend::Pool => Box::new(WorkerPool::new()),
        }
    }

    /// A [`QueryEngine`] on this backend.
    pub fn engine(self) -> QueryEngine {
        QueryEngine::with_executor(self.executor())
    }
}

/// One example's command-line surface: name, a one-line description, and
/// the shared flag set.
pub struct ExampleCli {
    name: &'static str,
    about: &'static str,
    /// Whether `--pool` is meaningful for this example.
    backend_flags: bool,
}

impl ExampleCli {
    /// Declares an example that accepts the backend flag.
    pub fn new(name: &'static str, about: &'static str) -> Self {
        Self {
            name,
            about,
            backend_flags: true,
        }
    }

    /// Declares an example with no backend flag (still gets `--help`).
    pub fn without_backend_flags(name: &'static str, about: &'static str) -> Self {
        Self {
            backend_flags: false,
            ..Self::new(name, about)
        }
    }

    fn usage(&self) -> String {
        let mut usage = format!(
            "{about}\n\nusage: cargo run --release --example {name} [-- FLAGS]\n\nflags:\n",
            about = self.about,
            name = self.name,
        );
        if self.backend_flags {
            usage.push_str(
                "  --pool      run probes through the persistent work-stealing WorkerPool\n",
            );
        }
        usage.push_str("  --help      show this message");
        usage
    }

    /// Parses `std::env::args`: prints usage and exits on `--help` (or on
    /// an unknown flag), and returns the chosen backend.
    pub fn parse_backend(&self) -> Backend {
        let mut backend = Backend::Sequential;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--help" | "-h" => {
                    println!("{}", self.usage());
                    std::process::exit(0);
                }
                "--pool" if self.backend_flags => backend = Backend::Pool,
                other => {
                    eprintln!("unknown flag {other:?}\n\n{}", self.usage());
                    std::process::exit(2);
                }
            }
        }
        backend
    }
}
