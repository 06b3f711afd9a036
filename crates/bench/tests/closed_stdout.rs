//! A regenerator whose reader has gone away (`table1 --quick | head -1`)
//! exits quietly: status 0, no panic and no error. The progress lines some
//! bins write to stderr are not errors and may still appear.

use std::process::{Command, Stdio};

/// Runs `exe argv` with stdout on a pipe whose reading end is closed
/// before the spawn, so the bin's first write fails with `BrokenPipe`
/// every time.
fn assert_quiet_with_closed_stdout(name: &str, exe: &str, argv: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(exe)
        .args(argv)
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn the bin");
    let line = format!("{name} {}", argv.join(" "));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "`{line}` panicked: {stderr}");
    assert!(
        !stderr.to_lowercase().contains("error"),
        "`{line}` reported an error: {stderr}"
    );
    assert_eq!(out.status.code(), Some(0), "`{line}`: {stderr}");
}

#[test]
fn table1_exits_quietly_when_stdout_is_closed() {
    assert_quiet_with_closed_stdout(
        "table1",
        env!("CARGO_BIN_EXE_table1"),
        &["--quick", "--soc", "d695"],
    );
}

#[test]
fn fig9_exits_quietly_when_stdout_is_closed() {
    assert_quiet_with_closed_stdout("fig9", env!("CARGO_BIN_EXE_fig9"), &[]);
}

#[test]
fn table2_exits_quietly_when_stdout_is_closed() {
    assert_quiet_with_closed_stdout("table2", env!("CARGO_BIN_EXE_table2"), &[]);
}

#[test]
fn fig1_staircase_exits_quietly_when_stdout_is_closed() {
    assert_quiet_with_closed_stdout("fig1_staircase", env!("CARGO_BIN_EXE_fig1_staircase"), &[]);
}
