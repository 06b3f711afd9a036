//! Every `soctam` command rejects a word it does not know: exit status 1,
//! an `error:` line naming the word, no panic, and nothing on stdout.

use std::process::Command;

/// `(argv, a word the error must name)`.
const BAD: [(&[&str], &str); 13] = [
    (
        &["schedule", "d695", "--width", "16", "--no-premept"],
        "--no-premept",
    ),
    (&["sweep", "d695", "--form", "16"], "--form"),
    (&["bounds", "d695", "--widht", "8"], "--widht"),
    // A view flag on a kind it does not belong to.
    (&["sweep", "d695", "--gantt"], "--gantt"),
    (&["bounds", "d695", "--svg", "out.svg"], "--svg"),
    (
        &["schedule", "d695", "--width", "16", "--alpha", "0.5"],
        "--alpha",
    ),
    // A daemon option.
    (
        &["schedule", "d695", "--width", "16", "--trace"],
        "soctam client",
    ),
    // A weight outside the cost function's domain.
    (&["sweep", "d695", "--alpha", "2"], "[0, 1]"),
    (&["sweep", "d695", "--alpha", "NaN"], "[0, 1]"),
    // A stray word after the non-solve commands.
    (&["staircase", "p93791", "c06", "extra"], "extra"),
    (
        &["wrapper", "d695", "s5378", "--width", "4", "extra"],
        "extra",
    ),
    (&["parse", "d695", "extra"], "extra"),
    (&["list", "extra"], "extra"),
];

#[test]
fn unknown_words_exit_1_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("soctam_cli_bad_argv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (argv, names) in BAD {
        let out = Command::new(env!("CARGO_BIN_EXE_soctam"))
            .args(argv)
            .current_dir(&dir)
            .output()
            .expect("run soctam");
        let line = argv.join(" ");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
        assert!(stderr.starts_with("error: "), "`{line}`: {stderr}");
        assert!(stderr.contains(names), "`{line}` names `{names}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`{line}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{line}` did work before failing");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(left.is_empty(), "a rejected command wrote a file");
}
