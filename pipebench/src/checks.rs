//! Output checks. Each returns `Err` with a one-line reason when the
//! program's output is wrong; the caller charges the failure to the
//! operation that produced the output.

use std::collections::HashSet;

use gfd_core::DiscoveredGfd;
use gfd_graph::Interner;
use gfd_incremental::ViolationMonitor;
use gfd_logic::{implies_refs, Gfd};

use crate::inputs::{Fnv, Rng};

/// Order-sensitive hash of a mined rule set: each rule's text, support,
/// level and the exact bits of its confidence.
pub fn rule_set_fingerprint(rules: &[DiscoveredGfd], interner: &Interner) -> u64 {
    let mut h = Fnv::default();
    for d in rules {
        h.bytes(d.gfd.display(interner).as_bytes())
            .u64(d.support as u64)
            .u64(d.level as u64)
            .u64(d.confidence.to_bits());
    }
    h.0
}

/// The rule set's fingerprint equals the recorded one.
pub fn fingerprint_matches(got: u64, want: u64, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: rule-set fingerprint {got:016x}, recorded {want:016x}"
        ))
    }
}

/// Two runs of the miners produced bit-identical rule sets.
pub fn identical(
    a: &[DiscoveredGfd],
    b: &[DiscoveredGfd],
    interner: &Interner,
    what: &str,
) -> Result<(), String> {
    let (fa, fb) = (
        rule_set_fingerprint(a, interner),
        rule_set_fingerprint(b, interner),
    );
    if a.len() == b.len() && fa == fb {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} rules ({fb:016x}) differ from the sequential {} ({fa:016x})",
            b.len(),
            a.len()
        ))
    }
}

/// Every rule of the cover is a rule of `sigma`.
pub fn cover_is_subset(sigma: &[DiscoveredGfd], cover: &[DiscoveredGfd]) -> Result<(), String> {
    let all: HashSet<&Gfd> = sigma.iter().map(|d| &d.gfd).collect();
    match cover.iter().position(|d| !all.contains(&d.gfd)) {
        None => Ok(()),
        Some(i) => Err(format!("cover rule {i} is not in the mined set")),
    }
}

/// Every rule in a seeded sample of up to `sample` rules dropped from
/// `sigma` is implied by the cover.
pub fn dropped_are_implied(
    sigma: &[DiscoveredGfd],
    cover: &[DiscoveredGfd],
    sample: usize,
    seed: u64,
) -> Result<usize, String> {
    let kept: HashSet<&Gfd> = cover.iter().map(|d| &d.gfd).collect();
    let mut dropped: Vec<&Gfd> = sigma
        .iter()
        .map(|d| &d.gfd)
        .filter(|g| !kept.contains(g))
        .collect();
    Rng::new(seed, 2).shuffle(&mut dropped);
    dropped.truncate(sample);
    for phi in &dropped {
        if !implies_refs(cover.iter().map(|d| &d.gfd), phi) {
            return Err(format!(
                "a dropped rule with a {}-edge pattern is not implied by the cover",
                phi.pattern().edge_count()
            ));
        }
    }
    Ok(dropped.len())
}

/// The incrementally maintained violation sets equal those of a monitor
/// built from scratch on the same graph and rules.
pub fn same_violations(kept: &ViolationMonitor, fresh: &ViolationMonitor) -> Result<(), String> {
    if kept.rules().len() != fresh.rules().len() {
        return Err("monitors hold different rule counts".into());
    }
    for i in 0..kept.rules().len() {
        if !kept.violations(i).eq(fresh.violations(i)) {
            return Err(format!(
                "rule {i}: {} maintained violations, {} from scratch",
                kept.violations(i).count(),
                fresh.violations(i).count()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{AttrId, GraphBuilder, LabelId, NodeId, Value};
    use gfd_incremental::{MonitorRule, UpdateBatch};
    use gfd_logic::{Literal, Rhs};
    use gfd_pattern::{End, Extension, PLabel, Pattern};

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    fn mined(gfd: Gfd) -> DiscoveredGfd {
        DiscoveredGfd {
            level: gfd.pattern().edge_count(),
            gfd,
            support: 10,
            confidence: 1.0,
        }
    }

    /// `Q = l0 -l2-> l1` with `∅ → x.a0 = 1`, its specialisation on a
    /// larger pattern (implied), and an unrelated rule (not implied).
    fn sigma() -> Vec<DiscoveredGfd> {
        let q = Pattern::edge(l(0), l(2), l(1));
        let base = Gfd::new(
            q.clone(),
            vec![],
            Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(1))),
        );
        let q2 = q.extend(&Extension {
            src: End::Var(1),
            label: l(2),
            dst: End::New(l(0)),
        });
        let special = Gfd::new(
            q2,
            vec![],
            Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(1))),
        );
        let other = Gfd::new(
            q,
            vec![],
            Rhs::Lit(Literal::constant(1, AttrId(1), Value::Int(2))),
        );
        vec![mined(base), mined(special), mined(other)]
    }

    #[test]
    fn a_correct_cover_passes() {
        let s = sigma();
        let cover = vec![s[0].clone(), s[2].clone()];
        assert_eq!(cover_is_subset(&s, &cover), Ok(()));
        assert_eq!(dropped_are_implied(&s, &cover, 8, 1), Ok(1));
    }

    #[test]
    fn a_wrong_rule_set_is_reported() {
        let s = sigma();
        // Drops a rule nothing else implies.
        let lossy = vec![s[0].clone()];
        assert!(dropped_are_implied(&s, &lossy, 8, 1).is_err());
        // Holds a rule that was never mined.
        let extra = Gfd::new(
            Pattern::edge(l(5), l(2), l(5)),
            vec![],
            Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(9))),
        );
        let invented = vec![s[0].clone(), s[2].clone(), mined(extra)];
        assert!(cover_is_subset(&s, &invented).is_err());
        // A parallel run that lost a rule, or changed a support.
        let interner = Interner::new();
        let mut changed = s.clone();
        changed[1].support += 1;
        assert!(identical(&s, &s[..2], &interner, "steal").is_err());
        assert!(identical(&s, &changed, &interner, "steal").is_err());
        assert_eq!(identical(&s, &s.clone(), &interner, "steal"), Ok(()));
        let fp = rule_set_fingerprint(&s, &interner);
        assert!(fingerprint_matches(rule_set_fingerprint(&changed, &interner), fp, "seq").is_err());
        assert_eq!(fingerprint_matches(fp, fp, "seq"), Ok(()));
    }

    #[test]
    fn monitor_drift_is_reported() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("p");
        let y = b.add_node("p");
        b.set_attr(x, "a", 1i64);
        b.set_attr(y, "a", 1i64);
        b.add_edge(x, y, "k");
        let g = b.build();
        let p = g.interner().lookup_label("p").expect("label");
        let k = g.interner().lookup_label("k").expect("label");
        let a = g.interner().lookup_attr("a").expect("attr");
        // x -k-> y  ⇒  x.a = y.a
        let rule = Gfd::new(
            Pattern::edge(PLabel::Is(p), PLabel::Is(k), PLabel::Is(p)),
            vec![],
            Rhs::Lit(Literal::var_var(0, a, 1, a)),
        );
        let rules = vec![MonitorRule::Base(rule)];
        let mut mon = ViolationMonitor::new(&g, rules.clone());
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId(1), a, Value::Int(2));
        let delta = mon.apply(&batch);
        assert_eq!(delta.added(), 1);
        let fresh = ViolationMonitor::new(mon.graph(), rules.clone());
        assert_eq!(same_violations(&mon, &fresh), Ok(()));
        let stale = ViolationMonitor::new(&g, rules);
        assert!(same_violations(&mon, &stale).is_err());
    }
}
