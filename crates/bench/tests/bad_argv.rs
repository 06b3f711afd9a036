//! Every regenerator and snapshot bin rejects an unknown word before it
//! does any work: a non-zero exit naming the word, no panic, nothing on
//! stdout, and no output file written.

use std::process::Command;

const BINS: [(&str, &str); 10] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("fig1_staircase", env!("CARGO_BIN_EXE_fig1_staircase")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    (
        "ablation_baselines",
        env!("CARGO_BIN_EXE_ablation_baselines"),
    ),
    (
        "ablation_heuristics",
        env!("CARGO_BIN_EXE_ablation_heuristics"),
    ),
    (
        "ablation_preemption",
        env!("CARGO_BIN_EXE_ablation_preemption"),
    ),
    ("perfsnap", env!("CARGO_BIN_EXE_perfsnap")),
    ("servesnap", env!("CARGO_BIN_EXE_servesnap")),
    ("clustersnap", env!("CARGO_BIN_EXE_clustersnap")),
];

#[test]
fn every_bin_rejects_an_unknown_word_before_any_work() {
    let dir = std::env::temp_dir().join(format!("soctam_bench_bad_argv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, exe) in BINS {
        let out = Command::new(exe)
            .arg("--bogus")
            .current_dir(&dir)
            .output()
            .expect("run the bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name} accepted `--bogus`");
        assert!(
            stderr.contains("--bogus"),
            "{name} names the word: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} did work before failing");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(left.is_empty(), "a rejected bin wrote a file");
}
