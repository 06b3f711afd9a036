//! Pins the `/metrics` series set of a daemon and of a balancer front.
//!
//! A fixed sequential mix (each request kind cold then warm, plus one
//! parse error) runs against one daemon and against a front over two
//! daemons. Each scrape is parsed strictly (`exposition::Scrape`) and
//! reduced to its `# TYPE` lines and its sample names with their labels:
//! values are dropped, loopback addresses become
//! `ADDR`, and the lines are sorted. The result must equal
//! `tests/golden/metrics_series.txt`, so a refactor of either exposition
//! keeps it series-for-series identical.
//!
//! To regenerate the file after an intended change to the series set, run
//! this test with `SOCTAM_BLESS=1` and review the diff.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::client::{self, Connection};
use soctam_server::exposition::Scrape;
use soctam_server::{Server, ServerConfig};

/// Each request kind cold then warm, then one line that fails to parse.
const MIX: [&str; 7] = [
    "schedule d695 --width 16",
    "schedule d695 --width 16",
    "sweep d695 --from 16 --to 18",
    "sweep d695 --from 16 --to 18",
    "bounds d695 --widths 16,32",
    "bounds d695 --widths 16,32",
    "frobnicate d695",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_series.txt")
}

fn backend() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral backend bind")
}

/// Sends the mix over one connection, in order.
fn run_mix(addr: SocketAddr) {
    let mut conn = Connection::connect(addr).expect("connect");
    for line in MIX {
        conn.request(line).expect("every line is answered");
    }
}

/// Replaces every `127.0.0.1:<port>` with `ADDR`.
fn mask_addresses(line: &str) -> String {
    const LOOPBACK: &str = "127.0.0.1:";
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(LOOPBACK) {
        out.push_str(&rest[..at]);
        out.push_str("ADDR");
        rest = rest[at + LOOPBACK.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The series set of one scrape, parsed strictly, each line tagged with
/// `side`.
fn series(side: &str, exposition: &str) -> Vec<String> {
    let scrape = Scrape::parse(exposition).unwrap_or_else(|e| panic!("{e} in:\n{exposition}"));
    scrape
        .families
        .iter()
        .flat_map(|family| {
            std::iter::once(format!("# TYPE {} {}", family.name, family.kind.as_str()))
                .chain(family.samples.iter().map(|sample| sample.series.clone()))
        })
        .map(|line| format!("{side} {}", mask_addresses(&line)))
        .collect()
}

fn scrape(addr: SocketAddr) -> String {
    let (status, body) = client::http_get(addr, "/metrics").expect("scrape");
    assert!(status.contains("200"), "{status}");
    body
}

#[test]
fn metrics_series_match_the_golden_file() {
    let daemon = backend();
    run_mix(daemon.local_addr());
    let mut lines = series("daemon", &scrape(daemon.local_addr()));
    daemon.shutdown();

    let (backend_a, backend_b) = (backend(), backend());
    let front = Balancer::bind(
        "127.0.0.1:0",
        &[backend_a.local_addr(), backend_b.local_addr()],
        BalancerConfig {
            probe_interval: Duration::from_secs(30),
            ..BalancerConfig::default()
        },
    )
    .expect("ephemeral front bind");
    run_mix(front.local_addr());
    lines.extend(series("front", &scrape(front.local_addr())));
    front.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();

    lines.sort();
    let got = lines.join("\n") + "\n";
    let path = golden_path();
    if std::env::var_os("SOCTAM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(got, want, "the /metrics series set changed");
}
