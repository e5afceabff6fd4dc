//! Order statistics for the benchmark's samples.

/// Median of `xs` (the mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percentile `p` (0..=100) by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// The percentiles a `.tail` metric may report, highest first. The
/// ladder stops at p90: on a shared two-core host, p95 and above of
/// these millisecond latencies moved by 25% to 500% between identical
/// runs, beyond any bound a regression gate can use.
pub const TAIL_LADDER: [f64; 3] = [90.0, 75.0, 50.0];

/// A tail statistic: the highest percentile of [`TAIL_LADDER`] that has
/// at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond the percentile's rank: of all samples for
    /// [`tail`], of the per-session times for [`session_tail`].
    pub beyond: usize,
    /// Sample count over all groups.
    pub n: usize,
    /// Non-empty groups.
    pub groups: usize,
}

/// Samples beyond percentile `p` of `n` samples: `floor(n * (1 - p/100))`.
fn beyond(n: usize, p: f64) -> usize {
    n * (100 - p as usize) / 100
}

/// The highest ladder step with at least ten of `n` samples beyond it;
/// the median when no step qualifies.
fn ladder(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// The tail of samples that fall into natural groups of time — one
/// read-back cycle's status polls, or one session's. The percentile is
/// the highest ladder step with at least ten of all the samples beyond
/// it (the median when no step qualifies; `beyond` then says how thin
/// the tail is); the value is the median over groups of each group's
/// percentile. A passing slowdown of the host that covers less than half
/// of the groups then barely moves it, while a slower program moves
/// every group. The step is set by the total, not by the smallest group,
/// so that one short group cannot switch the whole run to a lower step.
/// One group gives the plain ladder percentile.
pub fn tail(groups: &[Vec<f64>]) -> Tail {
    let groups: Vec<&[f64]> = groups
        .iter()
        .map(Vec::as_slice)
        .filter(|g| !g.is_empty())
        .collect();
    let n = groups.iter().map(|g| g.len()).sum();
    let p = ladder(n);
    let values: Vec<f64> = groups.iter().map(|g| percentile(g, p)).collect();
    Tail {
        p,
        value: median(&values),
        beyond: beyond(n, p),
        n,
        groups: groups.len(),
    }
}

/// The tail of repeated operations — one group per session, holding
/// every time that session's fetch (or snapshot) was timed. A session's
/// time is the lower quartile of its repeats: what the operation costs
/// when the host leaves it alone three times out of four. The percentile
/// is the highest ladder step with at least ten sessions beyond it (the
/// median when no step qualifies), taken over those per-session times.
/// It is the read-back time of the slowest sessions. A program that is
/// slower on some sessions moves them on every repeat. Interference from
/// the host, which in a slow phase of a shared machine hits a third or
/// more of all operations, moves a session only when it hits more than
/// three quarters of its repeats. Groups of one sample give the plain
/// ladder percentile of all samples.
pub fn session_tail(groups: &[Vec<f64>]) -> Tail {
    let per_session: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(g, 25.0))
        .collect();
    let p = ladder(per_session.len());
    Tail {
        p,
        value: percentile(&per_session, p),
        beyond: beyond(per_session.len(), p),
        n: groups.iter().map(Vec::len).sum(),
        groups: per_session.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples: p90 leaves 10 beyond.
        let t = tail(std::slice::from_ref(&xs));
        assert_eq!((t.p, t.beyond, t.n, t.groups), (90.0, 10, 100, 1));
        assert_eq!(t.value, percentile(&xs, 90.0));
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        // 99 samples: p90 leaves 9, so p75 (24 beyond) is reported.
        let t = tail(&[xs]);
        assert_eq!((t.p, t.beyond), (75.0, 24));
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        // 40 samples: p90 leaves 4, p75 leaves 10.
        let t = tail(std::slice::from_ref(&xs));
        assert_eq!((t.p, t.beyond), (75.0, 10));
        assert_eq!(t.value, percentile(&xs, 75.0));
    }

    #[test]
    fn tail_of_groups_is_the_median_of_group_tails() {
        // Five groups of 200; the first is a slow episode ten times
        // slower. Pooled, the episode is 20% of the samples and owns p90;
        // per group it moves one group of five.
        let quiet: Vec<f64> = (0..200).map(f64::from).collect();
        let slow: Vec<f64> = quiet.iter().map(|x| x + 10_000.0).collect();
        let mut groups = vec![slow];
        groups.extend(std::iter::repeat_n(quiet.clone(), 4));
        let t = tail(&groups);
        assert_eq!((t.p, t.groups, t.beyond, t.n), (90.0, 5, 100, 1000));
        assert_eq!(t.value, percentile(&quiet, 90.0));
        assert!(percentile(&groups.concat(), 90.0) > 10_000.0);
        // A program that is slower everywhere moves every group.
        let slower: Vec<Vec<f64>> = groups
            .iter()
            .map(|g| g.iter().map(|x| x * 2.0).collect())
            .collect();
        assert_eq!(tail(&slower).value, 2.0 * t.value);
    }

    #[test]
    fn tail_percentile_is_set_by_all_samples() {
        // 40 + 40 + 30 samples: no group has ten beyond p90, all 110 do,
        // so every group reports p90.
        let a: Vec<f64> = (0..40).map(f64::from).collect();
        let b: Vec<f64> = (0..40).map(|x| f64::from(x) * 2.0).collect();
        let c: Vec<f64> = (0..30).map(f64::from).collect();
        let t = tail(&[a.clone(), b, c.clone(), Vec::new()]);
        assert_eq!((t.p, t.beyond, t.n, t.groups), (90.0, 11, 110, 3));
        assert_eq!(t.value, percentile(&a, 90.0));
        // 99 samples in all leave 9 beyond p90: p75.
        let t = tail(&[a, c.iter().chain(&c[..29]).copied().collect()]);
        assert_eq!((t.p, t.beyond, t.n), (75.0, 24, 99));
    }

    #[test]
    fn session_tail_is_a_percentile_over_per_session_lower_quartiles() {
        // 100 sessions timed four times each; session k takes k ms,
        // except that two repeats of every session hit a slow host.
        let groups: Vec<Vec<f64>> = (0..100)
            .map(|k| {
                let x = f64::from(k);
                vec![x, x + 1_000.0, x, x + 1_000.0]
            })
            .collect();
        let t = session_tail(&groups);
        assert_eq!((t.p, t.beyond, t.n, t.groups), (90.0, 10, 400, 100));
        let sessions: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(t.value, percentile(&sessions, 90.0));
        // A program that is slower on the slowest sixth of the sessions
        // moves it.
        let mut slower = groups.clone();
        for g in &mut slower[84..] {
            for x in g.iter_mut() {
                *x += 500.0;
            }
        }
        assert!(session_tail(&slower).value > t.value);
        // 99 sessions leave 9 beyond p90, so p75 is reported.
        let t = session_tail(&groups[..99]);
        assert_eq!((t.p, t.beyond, t.groups), (75.0, 24, 99));
    }

    #[test]
    fn session_tail_of_single_sample_groups_is_the_plain_ladder_percentile() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let groups: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let t = session_tail(&groups);
        assert_eq!((t.p, t.beyond, t.groups), (75.0, 10, 40));
        assert_eq!(t.value, tail(std::slice::from_ref(&xs)).value);
        let thin = session_tail(&[vec![3.0], vec![1.0], Vec::new(), vec![2.0]]);
        assert_eq!((thin.p, thin.value, thin.groups), (50.0, 2.0, 3));
        assert_eq!(session_tail(&[]).value, 0.0);
    }

    #[test]
    fn tail_of_a_thin_sample_falls_back_to_the_median() {
        let t = tail(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!((t.p, t.value, t.beyond, t.n), (50.0, 2.0, 1, 3));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
    }
}
