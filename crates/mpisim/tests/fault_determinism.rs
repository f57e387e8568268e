//! Property-style test: `FaultPlan::decide` must be a *pure* function of
//! the message identity `(seed, src, dest, tag, seq, attempt)` — no hidden
//! state, no call-order dependence. The whole deterministic-replay story
//! (same seed ⇒ bit-identical runs, rollback recovery re-runs identical
//! iterations) rests on this property.

use mpisim::{FaultDecision, FaultPlan};

/// Deterministic identity sampler (xorshift; no external RNG crates).
struct Sampler(u64);

impl Sampler {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn identity(&mut self) -> (usize, usize, i64, u64, u32) {
        (
            (self.next() % 64) as usize, // src
            (self.next() % 64) as usize, // dest
            (self.next() % 1024) as i64, // tag (data plane)
            self.next() % 100_000,       // seq
            (self.next() % 4) as u32,    // attempt
        )
    }
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(0.2)
        .with_delay(0.2, 1e-4)
        .with_dup(0.2)
        .with_reorder(0.2)
}

fn decide_all(p: &FaultPlan, ids: &[(usize, usize, i64, u64, u32)]) -> Vec<FaultDecision> {
    ids.iter()
        .map(|&(s, d, t, q, a)| p.decide(s, d, t, q, a))
        .collect()
}

#[test]
fn decide_is_pure_over_a_thousand_sampled_identities() {
    let mut sampler = Sampler(0xdecafbad);
    let ids: Vec<_> = (0..1000).map(|_| sampler.identity()).collect();
    let p = plan(42);

    // Purity: repeated evaluation gives identical answers.
    let first = decide_all(&p, &ids);
    let second = decide_all(&p, &ids);
    assert_eq!(first, second);

    // Call-order independence: evaluating the identities in reverse, in an
    // interleaved order, and after a pile of unrelated decide() calls must
    // not change any answer.
    let mut reversed: Vec<_> = ids
        .iter()
        .rev()
        .map(|&(s, d, t, q, a)| p.decide(s, d, t, q, a))
        .collect();
    reversed.reverse();
    assert_eq!(first, reversed, "decide() must not depend on call order");

    for noise in 0..500 {
        p.decide(noise % 7, noise % 11, (noise % 13) as i64, noise as u64, 0);
    }
    assert_eq!(
        first,
        decide_all(&p, &ids),
        "interleaved unrelated calls must not perturb decisions"
    );

    // The identity is the *whole* key: a fresh plan with the same seed
    // agrees everywhere…
    assert_eq!(first, decide_all(&plan(42), &ids));

    // …and a different seed disagrees somewhere (at 20% fault rates over
    // 1000 identities, collision of every decision is impossible in
    // practice).
    assert_ne!(first, decide_all(&plan(43), &ids));

    // Sanity on the sampled population: the plan must actually fire.
    let fired = first
        .iter()
        .filter(|d| d.dropped || d.delayed || d.duplicated || d.reordered)
        .count();
    assert!(fired > 100, "only {fired}/1000 identities drew a fault");
}

#[test]
fn partition_cuts_are_a_pure_function_of_identity_and_time() {
    let groups = vec![vec![0, 1, 2], vec![3, 4]];
    let p = FaultPlan::new(5).with_partition(groups.clone(), 1.0, 2.0);
    let mut sampler = Sampler(0xcafe);
    let ids: Vec<_> = (0..1000).map(|_| sampler.identity()).collect();
    let times = [0.0, 0.5, 1.0, 1.5, 1.999, 2.0, 3.0];

    let eval = |plan: &FaultPlan| -> Vec<bool> {
        ids.iter()
            .flat_map(|&(s, d, t, ..)| {
                times
                    .iter()
                    .map(move |&at| plan.cut(s % 5, d % 5, t, at))
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    // Purity + call-order independence (reverse evaluation agrees).
    let first = eval(&p);
    assert_eq!(first, eval(&p));
    let p_ref = &p;
    let mut rev: Vec<bool> = ids
        .iter()
        .rev()
        .flat_map(|&(s, d, t, ..)| {
            times
                .iter()
                .rev()
                .map(move |&at| p_ref.cut(s % 5, d % 5, t, at))
                .collect::<Vec<_>>()
        })
        .collect();
    // Reversing the flat result of (reversed ids × reversed times)
    // restores the original order, so equality with `first` proves the
    // answers did not depend on evaluation order.
    rev.reverse();
    assert_eq!(first, rev, "cut() must not depend on call order");

    // A fresh identical plan agrees bit-for-bit.
    let q = FaultPlan::new(5).with_partition(groups, 1.0, 2.0);
    assert_eq!(first, eval(&q));

    // The law itself: cut ⇔ (window active ∧ cross-group ∧ data plane).
    for &(s, d, t, ..) in &ids {
        let (s, d) = (s % 5, d % 5);
        let cross = (s <= 2) != (d <= 2);
        for &at in &times {
            let active = (1.0..2.0).contains(&at);
            assert_eq!(p.cut(s, d, t, at), active && cross && s != d && t >= 0);
            assert!(!p.cut(s, d, -1 - t, at), "control plane is never cut");
        }
    }
}

#[test]
fn control_plane_tags_are_never_faulted() {
    let mut sampler = Sampler(7);
    let p = plan(1);
    for _ in 0..1000 {
        let (s, d, t, q, a) = sampler.identity();
        let decision = p.decide(s, d, -(t.abs() + 1), q, a);
        assert_eq!(
            decision,
            FaultDecision::default(),
            "negative (collective/control) tags must pass untouched"
        );
    }
}
