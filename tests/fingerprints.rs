//! The seeded scenario battery must reproduce the fingerprints committed
//! in `BENCH_5.json` bit for bit. Each fingerprint folds one iteration's
//! event count, completion counters, WIPS and per-resource utilization,
//! so any change to the simulated behaviour — a reordered RNG draw, a
//! differently rounded service time — flips it. A change that moves a
//! fingerprint on purpose must regenerate `BENCH_5.json` with
//! `bench_smoke --out BENCH_5.json`.

use ah_webtune::cluster::runner::run_iteration;
use bench::smoke::{fingerprint, fingerprint_scenarios};

/// The `"name": "hex"` pairs of `BENCH_5.json`'s `fingerprints` object.
/// `bench_smoke` writes the file with one pair per line, so a line scan
/// is enough.
fn committed_fingerprints() -> Vec<(String, u64)> {
    let json = include_str!("../BENCH_5.json");
    let start = json
        .find("\"fingerprints\": {")
        .expect("BENCH_5.json has a fingerprints object");
    json[start..]
        .lines()
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('}'))
        .map(|line| {
            let (name, hex) = line
                .trim()
                .trim_end_matches(',')
                .split_once(':')
                .expect("a \"name\": \"hex\" pair");
            let unquote = |s: &str| s.trim().trim_matches('"').to_string();
            let fp = u64::from_str_radix(&unquote(hex), 16).expect("a hex fingerprint");
            (unquote(name), fp)
        })
        .collect()
}

#[test]
fn seeded_scenarios_match_committed_fingerprints() {
    let committed = committed_fingerprints();
    let battery: Vec<(String, u64)> = fingerprint_scenarios()
        .iter()
        .map(|(name, s)| (name.clone(), fingerprint(&run_iteration(s))))
        .collect();
    let names = |v: &[(String, u64)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&battery), names(&committed), "scenario names");
    for ((name, got), (_, want)) in battery.iter().zip(&committed) {
        assert_eq!(got, want, "{name}: got {got:016x}, committed {want:016x}");
    }
}
