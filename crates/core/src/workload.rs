//! The workload abstraction consumed by the PGO pipelines: MiniLang source,
//! global-array staging data, and separate train/eval request streams.

/// A benchmarkable workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (e.g. `ad_ranker`).
    pub name: String,
    /// MiniLang source text.
    pub source: String,
    /// Entry function called per request.
    pub entry: String,
    /// Global arrays to stage before any request: `(name, values)`.
    pub setup: Vec<(String, Vec<i64>)>,
    /// Requests issued while profiling ("production traffic").
    pub train_calls: Vec<Vec<i64>>,
    /// Requests issued during evaluation (same distribution, different
    /// seed — the train/eval split).
    pub eval_calls: Vec<Vec<i64>>,
}

impl Workload {
    /// Creates a workload with no staged globals.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        entry: impl Into<String>,
        train_calls: Vec<Vec<i64>>,
        eval_calls: Vec<Vec<i64>>,
    ) -> Self {
        Workload {
            name: name.into(),
            source: source.into(),
            entry: entry.into(),
            setup: Vec::new(),
            train_calls,
            eval_calls,
        }
    }

    /// Returns a copy whose train/eval request streams are scaled down by
    /// `factor` (for quick tests: `scaled(0.1)` keeps every 10th request).
    /// A non-empty stream keeps at least one request; an empty one stays
    /// empty.
    pub fn scaled(&self, factor: f64) -> Workload {
        let keep = |calls: &[Vec<i64>]| -> Vec<Vec<i64>> {
            if factor >= 1.0 || calls.is_empty() {
                return calls.to_vec();
            }
            let n = ((calls.len() as f64 * factor).ceil() as usize).max(1);
            let stride = (calls.len() as f64 / n as f64).max(1.0);
            (0..n)
                .map(|i| calls[((i as f64 * stride) as usize).min(calls.len() - 1)].clone())
                .collect()
        };
        Workload {
            name: self.name.clone(),
            source: self.source.clone(),
            entry: self.entry.clone(),
            setup: self.setup.clone(),
            train_calls: keep(&self.train_calls),
            eval_calls: keep(&self.eval_calls),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_keeps_at_least_one_call() {
        let w = Workload::new(
            "w",
            "fn f(){return 0;}",
            "f",
            vec![vec![1]; 100],
            vec![vec![2]; 100],
        );
        let s = w.scaled(0.01);
        assert_eq!(s.train_calls.len(), 1);
        let s = w.scaled(0.25);
        assert_eq!(s.train_calls.len(), 25);
        let s = w.scaled(2.0);
        assert_eq!(s.train_calls.len(), 100);
        let idle = Workload::new("w", "fn f(){return 0;}", "f", vec![vec![1]; 4], Vec::new());
        let s = idle.scaled(0.5);
        assert_eq!((s.train_calls.len(), s.eval_calls.len()), (2, 0));
    }
}
