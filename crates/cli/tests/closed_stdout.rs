//! A `soctam` command whose reader has gone away (`soctam list | head -1`)
//! exits quietly: status 0, nothing on stderr, no panic.

use std::process::{Command, Stdio};

/// Runs `soctam argv` with stdout on a pipe whose reading end is closed
/// before the spawn, so the command's first write fails with `BrokenPipe`
/// every time.
fn assert_quiet_with_closed_stdout(argv: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_soctam"))
        .args(argv)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn soctam");
    let line = argv.join(" ");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "`{line}` panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "`{line}`: {stderr}");
    assert!(stderr.is_empty(), "`{line}` wrote to stderr: {stderr}");
}

#[test]
fn list_exits_quietly_when_stdout_is_closed() {
    assert_quiet_with_closed_stdout(&["list"]);
}

#[test]
fn a_gantt_schedule_exits_quietly_when_stdout_is_closed() {
    assert_quiet_with_closed_stdout(&["schedule", "d695", "--width", "16", "--gantt"]);
}
