//! `ff-book` — check the handbook without mdBook.
//!
//! ```text
//! cargo run -q -p ff-book -- check docs    # every relative link, every fence
//! ```
//!
//! Exit codes: 0 clean, 1 problems found (or an unreadable book), 2
//! usage error.

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: ff-book check <book-dir>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, dir] = args.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("unknown command {cmd:?}; {USAGE}");
        return ExitCode::from(2);
    }
    let dir = Path::new(dir);
    match ff_book::check(dir) {
        Ok(issues) if issues.is_empty() => {
            println!("handbook OK in {}", dir.display());
            ExitCode::SUCCESS
        }
        Ok(issues) => {
            for i in &issues {
                eprintln!("{}:{}: {}", i.file, i.line, i.reason);
            }
            eprintln!("{} problem(s)", issues.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ff-book check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
