//! Every metric the benchmark reports: its unit, which way is better,
//! and (for end-to-end metrics) the regression bound.  `BENCHMARK.json`
//! must list exactly these; a unit test holds the two together.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed with `--trace 0`; gated against the parent commit.
    EndToEnd,
    /// Printed with `--trace 1`; explains where end-to-end time went.
    PerLayer,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::EndToEnd,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        kind: Kind::PerLayer,
        bound: 0.0,
    }
}

pub const DEFS: &[Def] = &[
    // End to end: what a user of the compiler, the engines or the
    // daemon sees.  Each workload fills them from its own operation
    // (see perfbench/README.md for the per-workload meaning).
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.1),
    e2e("throughput", "1/s", true, 0.25),
    e2e("p50_ms", "ms", false, 0.25),
    // The workload's tail latency (highest percentile with ten samples
    // beyond it).  Demoted from end to end: see perfbench/README.md.
    layer("tail_ms", "ms", false),
    // Compile phases: per-program median summed over the programs the
    // workload compiles (its corpus, or its apps during set-up).
    layer("frontend.lex_ms", "ms", false),
    layer("frontend.parse_ms", "ms", false),
    layer("frontend.elaborate_ms", "ms", false),
    layer("frontend.tokens", "count", false),
    layer("graph.build_ms", "ms", false),
    layer("graph.validate_ms", "ms", false),
    layer("graph.flatten_ms", "ms", false),
    layer("graph.nodes", "count", false),
    layer("analysis.analyze_ms", "ms", false),
    layer("linear.optimize_ms", "ms", false),
    layer("linear.replaced_filters", "count", true),
    layer("sdep.verify_ms", "ms", false),
    layer("exec.lower_ms", "ms", false),
    layer("exec.ops_per_iteration", "count", false),
    layer("exec.code_len", "count", false),
    layer("rt.plan_ms", "ms", false),
    layer("compile.drop_ms", "ms", false),
    layer("compile.explained_share", "ratio", true),
    // The compiled engine (steady-state workloads).
    layer("exec.init_ms", "ms", false),
    layer("exec.ns_per_firing", "ns", false),
    layer("exec.firings_per_output", "count", false),
    layer("exec.op_share", "ratio", true),
    layer("exec.freq.items_per_s", "1/s", true),
    layer("exec.freq.kernel_filters", "count", true),
    layer("yardstick.items_per_s", "1/s", true),
    layer("yardstick.gap", "ratio", false),
    // The 2-thread parallel runtime on each steady app (traced runs
    // only: its wall time is too noisy on a shared host to gate).
    layer("rt.fir.stages", "count", true),
    layer("rt.fir.fissed_regions", "count", true),
    layer("rt.fir.stage_imbalance", "ratio", false),
    layer("rt.fir.wait_share", "ratio", false),
    layer("rt.sort.stages", "count", true),
    layer("rt.sort.fissed_regions", "count", true),
    layer("rt.sort.stage_imbalance", "ratio", false),
    layer("rt.sort.wait_share", "ratio", false),
    // streamd serving (serve workload).
    layer("streamd.wire_us", "us", false),
    layer("streamd.daemon_us", "us", false),
    layer("exec.session_us", "us", false),
    layer("net.transport_us", "us", false),
    layer("streamd.open_us", "us", false),
    layer("streamd.accept_ratio", "ratio", true),
    layer("streamd.rss_kib_per_instance", "KiB", false),
    layer("serve.capacity_rps", "1/s", true),
    layer("serve.generator_late_ms", "ms", false),
    layer("serve.backlog_growth", "count", false),
    // Every workload.
    layer("trace.overhead", "ratio", false),
    layer("error_rate", "ratio", false),
];

pub fn defs(kind: Kind) -> impl Iterator<Item = &'static Def> {
    DEFS.iter().filter(move |d| d.kind == kind)
}

/// Render the result line: `metrics` must cover every end-to-end
/// metric (untraced) or may omit per-layer metrics whose layer the
/// workload did not exercise, which read 0.
pub fn result_json(
    kind: Kind,
    metrics: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    for name in metrics.keys() {
        if !defs(kind).any(|d| d.name == *name) {
            return Err(format!(
                "metric `{name}` is not a registered {kind:?} metric"
            ));
        }
    }
    let mut parts = Vec::new();
    for d in defs(kind) {
        let v = match (metrics.get(d.name), kind) {
            (Some(v), _) => *v,
            (None, Kind::PerLayer) => 0.0,
            (None, Kind::EndToEnd) => {
                return Err(format!("end-to-end metric `{}` missing", d.name))
            }
        };
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite: {v}", d.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough to walk `BENCHMARK.json`.
    #[derive(Debug, Clone, PartialEq)]
    enum J {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<J>),
        Obj(Vec<(String, J)>),
    }

    impl J {
        fn get(&self, k: &str) -> Option<&J> {
            match self {
                J::Obj(kv) => kv.iter().find(|(key, _)| key == k).map(|(_, v)| v),
                _ => None,
            }
        }
        fn str(&self) -> &str {
            match self {
                J::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
    }

    fn parse(s: &str) -> J {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i);
        ws(b, &mut i);
        assert_eq!(i, b.len(), "trailing input");
        v
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> J {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut kv = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return J::Obj(kv);
                    }
                    let k = match value(b, i) {
                        J::Str(k) => k,
                        other => panic!("object key {other:?}"),
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    kv.push((k, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut xs = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return J::Arr(xs);
                    }
                    xs.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                    }
                    s.push(b[*i] as char);
                    *i += 1;
                }
                *i += 1;
                J::Str(s)
            }
            b't' => {
                *i += 4;
                J::Bool(true)
            }
            b'f' => {
                *i += 5;
                J::Bool(false)
            }
            b'n' => {
                *i += 4;
                J::Null
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                J::Num(
                    std::str::from_utf8(&b[start..*i])
                        .expect("ascii")
                        .parse()
                        .expect("number"),
                )
            }
        }
    }

    fn benchmark_json() -> J {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let b = benchmark_json();
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let listed = match b.get(key) {
                Some(J::Arr(xs)) => xs.clone(),
                other => panic!("{key}: {other:?}"),
            };
            let ours: Vec<&Def> = defs(kind).collect();
            assert_eq!(listed.len(), ours.len(), "{key} count");
            for (m, d) in listed.iter().zip(&ours) {
                assert_eq!(m.get("name").map(J::str), Some(d.name), "{key} order");
                assert_eq!(m.get("unit").map(J::str), Some(d.unit), "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(m.get("better").map(J::str), Some(better), "{}", d.name);
                if kind == Kind::EndToEnd {
                    assert_eq!(m.get("bound"), Some(&J::Num(d.bound)), "{}", d.name);
                }
            }
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> = match benchmark_json().get("workloads") {
            Some(J::Arr(ws)) => ws
                .iter()
                .map(|w| w.get("name").map(J::str).unwrap_or("").to_string())
                .collect(),
            other => panic!("workloads: {other:?}"),
        };
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn every_metric_appears_with_its_unit() {
        for kind in [Kind::EndToEnd, Kind::PerLayer] {
            let m: BTreeMap<&'static str, f64> = defs(kind).map(|d| (d.name, 1.5)).collect();
            let line = result_json(kind, &m, true, 3, 0).expect("renders");
            let j = parse(&line);
            for d in defs(kind) {
                let got = j
                    .get("metrics")
                    .and_then(|ms| ms.get(d.name))
                    .unwrap_or_else(|| panic!("{} missing", d.name));
                assert_eq!(got.get("unit").map(J::str), Some(d.unit));
                assert_eq!(got.get("value"), Some(&J::Num(1.5)));
            }
            assert_eq!(j.get("attempted"), Some(&J::Num(3.0)));
        }
        // A missing end-to-end metric is a bug, not a silent zero.
        assert!(result_json(Kind::EndToEnd, &BTreeMap::new(), true, 1, 0).is_err());
        let mut stray = BTreeMap::new();
        stray.insert("no.such_metric", 1.0);
        assert!(result_json(Kind::PerLayer, &stray, true, 1, 0).is_err());
    }
}
