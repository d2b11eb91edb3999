//! The statistics helper: medians, percentiles that are only reported when
//! enough samples lie beyond them, and the quiet-time estimator.

use csspgo_benchmark::stats::{median, percentile, quiet_ns, supports_percentile, tail};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert!(!supports_percentile(999, 99.0));
    assert!(supports_percentile(1000, 99.0));
    assert!(!supports_percentile(99, 90.0));
    assert!(supports_percentile(100, 90.0));

    // One sample short of supporting p99: the tail is reported lower, never
    // as a p99 that nine samples stand behind.
    let short: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(tail(&short, 99.0), Some((98.0, 980.0)));
}

#[test]
fn tail_falls_back_to_the_highest_supported_percentile() {
    let long: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&long, 99.0), Some((99.0, 990.0)));
    // 200 samples: ten beyond p95, not beyond p96.
    let mid: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail(&mid, 99.0), Some((95.0, 190.0)));
    // Too few for any tail: the median stands in.
    assert_eq!(tail(&[1.0, 2.0, 3.0], 99.0), Some((50.0, 2.0)));
    assert_eq!(tail(&[], 99.0), None);
}

#[test]
fn quiet_time_sums_each_segments_fastest_showing() {
    // Three rounds of a three-segment piece of work; a burst hits a
    // different segment in each.
    let rounds = vec![vec![10, 90, 30], vec![50, 20, 30], vec![10, 20, 70]];
    assert_eq!(quiet_ns(&rounds), Some(10 + 20 + 30));
    assert_eq!(quiet_ns(&[vec![5, 6]]), Some(11));
    assert_eq!(quiet_ns(&[]), None);
    // Rounds that disagree on their shape are not fixed work.
    assert_eq!(quiet_ns(&[vec![1, 2], vec![1]]), None);
}
