//! Seeded request generators. Every workload's inputs are request lines in
//! the shared protocol grammar, drawn from a SplitMix64 stream: the same
//! seed gives the same lines, and the program under test only ever sees
//! the generated lines.

use std::collections::BTreeSet;

/// The four ITC'02 benchmark SOCs the daemon serves.
pub const SOCS: [&str; 4] = ["d695", "p22810", "p34392", "p93791"];

/// Seed of the fixed verification key lists. It is not a workload seed:
/// the verification pass must repeat bit-for-bit across every run.
const VERIFY_SEED: u64 = 0x5eed_0f7e;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u16, hi: u16) -> u16 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u16
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The mode suffix of one (power, preemption) combination.
fn modes(power: bool, no_preempt: bool) -> String {
    let mut s = String::new();
    if power {
        s.push_str(" --power");
    }
    if no_preempt {
        s.push_str(" --no-preempt");
    }
    s
}

/// Every (SOC, power, preemption) combination, in a fixed order.
fn combos() -> impl Iterator<Item = (&'static str, String)> {
    SOCS.iter().flat_map(|soc| {
        [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .map(move |(p, n)| (*soc, modes(p, n)))
    })
}

/// One stratified block of mixed requests: every (SOC, power, preemption)
/// combination once per kind — a schedule, a three-width sweep, and a
/// three-width bounds request — with seeded widths, in seeded order. Any
/// run of whole blocks has the same kind and SOC mix, whatever the seed.
fn mixed_block(rng: &mut Rng) -> Vec<String> {
    let mut block = Vec::with_capacity(48);
    for (soc, mode) in combos() {
        let w = rng.range(8, 64);
        block.push(format!("schedule {soc} --width {w}{mode}"));
        let from = rng.range(8, 62);
        block.push(format!("sweep {soc} --from {from} --to {}{mode}", from + 2));
        let (a, b, c) = (rng.range(8, 64), rng.range(8, 64), rng.range(8, 64));
        block.push(format!("bounds {soc} --widths {a},{b},{c}{mode}"));
    }
    rng.shuffle(&mut block);
    block
}

/// The `oneshot` stream: `blocks` stratified blocks of mixed requests.
pub fn oneshot_stream(seed: u64, blocks: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..blocks).flat_map(|_| mixed_block(&mut rng)).collect()
}

/// The `serve_cold` key cycle, in seeded order: for every (SOC, power,
/// preemption) combination, every schedule key of width 8..=64 and every
/// three-width sweep key starting at 8..=62 — the request shapes and
/// widths of the `oneshot` mix. That is 16 × (57 + 55) = 1792 keys, more
/// than the daemon's 1024-entry solution cache holds. Cycling through more
/// keys than an LRU holds makes every request miss.
pub fn cold_cycle(seed: u64) -> Vec<String> {
    let mut keys: Vec<String> = combos()
        .flat_map(|(soc, mode)| {
            let schedules = (8..=64u16).map({
                let mode = mode.clone();
                move |w| format!("schedule {soc} --width {w}{mode}")
            });
            let sweeps =
                (8..=62u16).map(move |f| format!("sweep {soc} --from {f} --to {}{mode}", f + 2));
            schedules.chain(sweeps)
        })
        .collect();
    Rng::new(seed).shuffle(&mut keys);
    keys
}

/// The hot key set shared by `serve_hot` and `front_hot`: `n` distinct
/// mixed requests drawn from seeded stratified blocks, in drawn order.
pub fn hot_keys(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut seen = BTreeSet::new();
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        for line in mixed_block(&mut rng) {
            if keys.len() < n && seen.insert(line.clone()) {
                keys.push(line);
            }
        }
    }
    keys
}

/// The fixed verification key lists, one per workload family. They do not
/// depend on the run's seed, so the verification counters and the
/// makespan/lower-bound ratio repeat exactly across runs.
pub fn verify_oneshot() -> Vec<String> {
    oneshot_stream(VERIFY_SEED, 1)
}

pub fn verify_cold() -> Vec<String> {
    cold_cycle(VERIFY_SEED).into_iter().take(32).collect()
}

pub fn verify_hot() -> Vec<String> {
    hot_keys(VERIFY_SEED, 32)
}

/// Requests that compile every (SOC, power) context and force its
/// full-cap menus without touching any `serve_cold` key.
pub fn context_warmers() -> Vec<String> {
    SOCS.iter()
        .flat_map(|soc| {
            [
                format!("bounds {soc} --widths 64"),
                format!("bounds {soc} --widths 64 --power"),
            ]
        })
        .collect()
}
