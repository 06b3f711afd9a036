//! The CLI's solve commands answer exactly as the protocol does.
//!
//! For each line below, `soctam <line>` runs the built binary, and the
//! same words parse through `protocol::parse_request` and serve through
//! `Engine::serve_one`. Every number the rendered response carries must
//! be the number the CLI prints, and the CLI must print no other row.

use std::path::Path;
use std::process::Command;

use soctam_core::engine::Engine;
use soctam_core::protocol::{self, benchmark_resolver, Json};
use soctam_core::soc::{benchmarks, itc02};

/// Solve lines, each covering a mode flag or a default of its kind.
const LINES: [&str; 9] = [
    "schedule d695 --width 16",
    "schedule d695 --width 16 --power",
    "schedule d695 --width 16 --no-preempt",
    "schedule p22810 --width 32 --power --no-preempt",
    "sweep d695 --from 16 --to 18",
    "sweep d695 --from 16 --to 18 --power",
    "sweep p34392 --from 30 --to 33 --no-preempt",
    "bounds d695",
    "bounds d695 --widths 8,12 --power",
];

/// Runs `soctam` with `args` in `dir`, expecting success; returns stdout.
fn soctam(args: &[&str], dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_soctam"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run soctam");
    assert!(
        out.status.success(),
        "`soctam {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The protocol's response to `line`, served by a fresh engine.
fn served(line: &str) -> String {
    let req = protocol::parse_request(line, &mut benchmark_resolver()).expect("parses");
    let response = protocol::render_result(&req, &Engine::new().serve_one(&req));
    assert!(response.contains("\"ok\": true"), "{line}: {response}");
    response
}

/// The integer `value` holds.
fn int(value: &Json) -> u64 {
    value
        .as_u64()
        .unwrap_or_else(|| panic!("not an integer: {value:?}"))
}

/// The leading whitespace-separated integers of every line of `text`
/// that starts with one (the rows of the sweep table).
fn rows(text: &str, columns: usize) -> Vec<Vec<u64>> {
    text.lines()
        .filter_map(|line| {
            let row: Vec<u64> = line
                .split_whitespace()
                .take(columns)
                .map_while(|t| t.parse().ok())
                .collect();
            (row.len() == columns).then_some(row)
        })
        .collect()
}

fn check(line: &str, cli: &str) {
    let response = served(line);
    let json = Json::parse(&response).unwrap_or_else(|e| panic!("{e}: {response}"));
    match line.split_whitespace().next() {
        Some("schedule") => {
            let one = |key| int(&json[key]);
            let timing = format!(
                "testing time {} cycles (lower bound {}), volume {} bits",
                one("makespan"),
                one("lower_bound"),
                one("volume")
            );
            let params = format!(
                "params (m={}, d={}, slack={})",
                one("m"),
                one("d"),
                one("slack")
            );
            assert!(cli.contains(&timing), "{line}: want `{timing}` in\n{cli}");
            assert!(cli.contains(&params), "{line}: want `{params}` in\n{cli}");
        }
        Some("sweep") => {
            let want: Vec<Vec<u64>> = json["points"]
                .as_array()
                .expect("a points array")
                .iter()
                .map(|p| vec![int(&p["width"]), int(&p["time"]), int(&p["volume"])])
                .collect();
            assert_eq!(rows(cli, 3), want, "{line}:\n{cli}");
        }
        Some("bounds") => {
            let array = |key| json[key].as_array().expect("an array member");
            let want: Vec<String> = array("widths")
                .iter()
                .zip(array("bounds"))
                .map(|(w, lb)| format!("  W={:>3}: {}", int(w), int(lb)))
                .collect();
            let got: Vec<&str> = cli.lines().filter(|l| l.starts_with("  W=")).collect();
            assert_eq!(got, want, "{line}:\n{cli}");
        }
        _ => unreachable!("solve lines only"),
    }
}

#[test]
fn cli_solve_lines_print_the_protocol_numbers() {
    let dir = std::env::temp_dir();
    for line in LINES {
        let argv: Vec<&str> = line.split_whitespace().collect();
        check(line, &soctam(&argv, &dir));
    }
}

#[test]
fn cli_honours_power_and_widths_on_sweep_and_bounds() {
    let dir = std::env::temp_dir();
    let sweep = soctam(
        &["sweep", "d695", "--from", "16", "--to", "18", "--power"],
        &dir,
    );
    let times: Vec<u64> = rows(&sweep, 3).iter().map(|r| r[1]).collect();
    assert_eq!(times, [43166, 40337, 37976], "{sweep}");

    let bounds = soctam(&["bounds", "d695", "--widths", "8,12"], &dir);
    assert!(
        bounds.contains("  W=  8: 82661\n  W= 12: 55107\n"),
        "{bounds}"
    );
}

#[test]
fn a_soc_path_with_a_space_resolves() {
    let dir = std::env::temp_dir().join(format!("soctam_cli_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let d695 = benchmarks::by_name("d695").expect("d695");
    std::fs::write(dir.join("my soc.soc"), itc02::to_string(&d695)).expect("write");
    let by_path = soctam(&["schedule", "my soc.soc", "--width", "16"], &dir);
    let by_name = soctam(&["schedule", "d695", "--width", "16"], &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(by_path, by_name);
}
