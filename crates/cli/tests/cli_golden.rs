//! Pins the stdout of the `soctam` command lines the verify notes drive.
//!
//! Each line runs the built binary; its stdout, headed by the command
//! line, is appended to one transcript that must equal
//! `tests/golden/cli.txt`. The `.soc` file `parse` reads is d695 written
//! out in the compact dialect, into a scratch directory the binary runs
//! in.
//!
//! To regenerate the file after an intended change to the CLI's output,
//! run this test with `SOCTAM_BLESS=1` and review the diff.

use std::path::PathBuf;
use std::process::Command;

use soctam_core::soc::{benchmarks, itc02};

/// The command lines, as argv after `soctam`.
const LINES: [&[&str]; 8] = [
    &["list"],
    &["schedule", "d695", "--width", "24"],
    &["schedule", "d695", "--width", "24", "--gantt"],
    &["schedule", "p34392", "--width", "32"],
    &[
        "sweep", "d695", "--from", "8", "--to", "24", "--alpha", "0.5",
    ],
    &["staircase", "p93791", "c06"],
    &["bounds", "d695"],
    &["parse", "d695.soc"],
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli.txt")
}

#[test]
fn cli_lines_match_the_golden_file() {
    let dir = std::env::temp_dir().join(format!("soctam_cli_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let d695 = benchmarks::by_name("d695").expect("d695");
    std::fs::write(dir.join("d695.soc"), itc02::to_string(&d695)).expect("write d695.soc");

    let mut got = String::new();
    for argv in LINES {
        let out = Command::new(env!("CARGO_BIN_EXE_soctam"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("run soctam");
        assert!(
            out.status.success(),
            "`soctam {}` failed: {}",
            argv.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        got.push_str(&format!("$ soctam {}\n", argv.join(" ")));
        got.push_str(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
    }
    std::fs::remove_dir_all(&dir).ok();

    let path = golden_path();
    if std::env::var_os("SOCTAM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(got, want, "the CLI's output changed");
}
