//! The three TPC-W workload mixes (Table 1 of the paper).
//!
//! A *mix* assigns a relative weight to each of the fourteen interactions.
//! TPC-W defines three: **Browsing** (WIPSb, 95% browse), **Shopping**
//! (WIPS, 80% browse), and **Ordering** (WIPSo, 50% browse). The weights
//! here are exactly the percentages printed in Table 1.

use crate::interaction::{Interaction, InteractionClass};
use simkit::rng::SimRng;
use std::fmt;

/// One of the three standard TPC-W workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 95% browse / 5% order — the WIPSb interval.
    Browsing,
    /// 80% browse / 20% order — the primary WIPS metric.
    Shopping,
    /// 50% browse / 50% order — the WIPSo interval.
    Ordering,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Browsing, Workload::Shopping, Workload::Ordering];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Browsing => "Browsing",
            Workload::Shopping => "Shopping",
            Workload::Ordering => "Ordering",
        }
    }

    /// The TPC-W metric label for this interval.
    pub fn metric_label(self) -> &'static str {
        match self {
            Workload::Browsing => "WIPSb",
            Workload::Shopping => "WIPS",
            Workload::Ordering => "WIPSo",
        }
    }

    /// The interaction mix for this workload.
    pub fn mix(self) -> &'static Mix {
        match self {
            Workload::Browsing => &BROWSING_MIX,
            Workload::Shopping => &SHOPPING_MIX,
            Workload::Ordering => &ORDERING_MIX,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An interaction mix: per-interaction weights in percent (summing to 100).
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Percent weight per interaction, indexed by [`Interaction::index`].
    weights: [f64; Interaction::COUNT],
    /// `weights.iter().sum()`, computed once so sampling does not re-sum
    /// the fourteen weights on every draw.
    total: f64,
}

/// `weights.iter().sum()` in a `const` context: the same left fold from
/// the same `-0.0` start as `f64`'s `Sum`, so the result is bit-identical.
const fn weight_total(weights: &[f64; Interaction::COUNT]) -> f64 {
    let mut total = -0.0;
    let mut i = 0;
    while i < weights.len() {
        total += weights[i];
        i += 1;
    }
    total
}

impl Mix {
    /// Build a mix from `(interaction, percent)` pairs. Every interaction
    /// must appear exactly once and the percentages must sum to 100 (within
    /// 1e-6).
    pub fn new(entries: [(Interaction, f64); Interaction::COUNT]) -> Result<Mix, MixError> {
        let mut weights = [f64::NAN; Interaction::COUNT];
        for (ix, pct) in entries {
            if pct < 0.0 {
                return Err(MixError::NegativeWeight(ix));
            }
            if !weights[ix.index()].is_nan() {
                return Err(MixError::DuplicateInteraction(ix));
            }
            weights[ix.index()] = pct;
        }
        let total = weight_total(&weights);
        if (total - 100.0).abs() > 1e-6 {
            return Err(MixError::BadTotal(total));
        }
        Ok(Mix { weights, total })
    }

    /// Percent weight of one interaction.
    pub fn percent(&self, ix: Interaction) -> f64 {
        self.weights[ix.index()]
    }

    /// Probability (0..1) of one interaction.
    pub fn probability(&self, ix: Interaction) -> f64 {
        self.weights[ix.index()] / 100.0
    }

    /// Total percent weight of a class (Browse or Order).
    pub fn class_percent(&self, class: InteractionClass) -> f64 {
        Interaction::ALL
            .iter()
            .filter(|i| i.class() == class)
            .map(|i| self.percent(*i))
            .sum()
    }

    /// Sample an interaction according to the mix weights.
    ///
    /// The paper's driver walks the TPC-W Markov navigation graph; the
    /// published table only pins the steady-state frequencies, so we sample
    /// i.i.d. from them directly (documented substitution in DESIGN.md §1).
    pub fn sample(&self, rng: &mut SimRng) -> Interaction {
        let idx = rng.weighted_index_with_total(&self.weights, self.total);
        // `weighted_index` returns a position inside `self.weights`,
        // which has exactly `Interaction::COUNT` entries.
        Interaction::ALL[idx.min(Interaction::COUNT - 1)]
    }

    /// The raw weight array (for property tests and reporting).
    pub fn weights(&self) -> &[f64; Interaction::COUNT] {
        &self.weights
    }
}

/// Mix construction failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixError {
    NegativeWeight(Interaction),
    DuplicateInteraction(Interaction),
    BadTotal(f64),
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixError::NegativeWeight(ix) => write!(f, "negative weight for {ix}"),
            MixError::DuplicateInteraction(ix) => write!(f, "duplicate entry for {ix}"),
            MixError::BadTotal(t) => write!(f, "mix weights sum to {t}, expected 100"),
        }
    }
}

impl std::error::Error for MixError {}

macro_rules! static_mix {
    ($(($ix:ident, $pct:expr)),+ $(,)?) => {{
        let mut weights = [0.0; Interaction::COUNT];
        $(weights[Interaction::$ix.index()] = $pct;)+
        Mix { weights, total: weight_total(&weights) }
    }};
}

/// Table 1, Browsing column (WIPSb): 95% browse / 5% order.
pub static BROWSING_MIX: Mix = static_mix![
    (Home, 29.00),
    (NewProducts, 11.00),
    (BestSellers, 11.00),
    (ProductDetail, 21.00),
    (SearchRequest, 12.00),
    (SearchResults, 11.00),
    (ShoppingCart, 2.00),
    (CustomerRegistration, 0.82),
    (BuyRequest, 0.75),
    (BuyConfirm, 0.69),
    (OrderInquiry, 0.30),
    (OrderDisplay, 0.25),
    (AdminRequest, 0.10),
    (AdminConfirm, 0.09),
];

/// Table 1, Shopping column (WIPS): 80% browse / 20% order.
pub static SHOPPING_MIX: Mix = static_mix![
    (Home, 16.00),
    (NewProducts, 5.00),
    (BestSellers, 5.00),
    (ProductDetail, 17.00),
    (SearchRequest, 20.00),
    (SearchResults, 17.00),
    (ShoppingCart, 11.60),
    (CustomerRegistration, 3.00),
    (BuyRequest, 2.60),
    (BuyConfirm, 1.20),
    (OrderInquiry, 0.75),
    (OrderDisplay, 0.66),
    (AdminRequest, 0.10),
    (AdminConfirm, 0.09),
];

/// Table 1, Ordering column (WIPSo): 50% browse / 50% order.
pub static ORDERING_MIX: Mix = static_mix![
    (Home, 9.12),
    (NewProducts, 0.46),
    (BestSellers, 0.46),
    (ProductDetail, 12.35),
    (SearchRequest, 14.53),
    (SearchResults, 13.08),
    (ShoppingCart, 13.53),
    (CustomerRegistration, 12.86),
    (BuyRequest, 12.73),
    (BuyConfirm, 10.18),
    (OrderInquiry, 0.25),
    (OrderDisplay, 0.22),
    (AdminRequest, 0.12),
    (AdminConfirm, 0.11),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_are_100_percent() {
        for w in Workload::ALL {
            let total: f64 = w.mix().weights().iter().sum();
            assert!((total - 100.0).abs() < 1e-9, "{w} mix sums to {total}");
        }
    }

    #[test]
    fn cached_total_is_bit_identical_to_sum() {
        for w in Workload::ALL {
            let mix = w.mix();
            let summed: f64 = mix.weights().iter().sum();
            assert_eq!(mix.total.to_bits(), summed.to_bits(), "{w}");
        }
    }

    #[test]
    fn sampling_with_cached_total_matches_resumming() {
        for w in Workload::ALL {
            let mix = w.mix();
            let mut a = SimRng::new(41);
            let mut b = SimRng::new(41);
            for _ in 0..10_000 {
                let want = Interaction::ALL[b.weighted_index(mix.weights())];
                assert_eq!(mix.sample(&mut a), want, "{w}");
            }
        }
    }

    #[test]
    fn table1_class_splits_match_paper() {
        // Table 1 header row: Browse 95/80/50, Order 5/20/50.
        let cases = [
            (Workload::Browsing, 95.0, 5.0),
            (Workload::Shopping, 80.0, 20.0),
            (Workload::Ordering, 50.0, 50.0),
        ];
        for (w, browse, order) in cases {
            let mix = w.mix();
            assert!(
                (mix.class_percent(InteractionClass::Browse) - browse).abs() < 1e-9,
                "{w}: browse"
            );
            assert!(
                (mix.class_percent(InteractionClass::Order) - order).abs() < 1e-9,
                "{w}: order"
            );
        }
    }

    #[test]
    fn table1_spot_values() {
        assert_eq!(BROWSING_MIX.percent(Interaction::Home), 29.00);
        assert_eq!(SHOPPING_MIX.percent(Interaction::ShoppingCart), 11.60);
        assert_eq!(ORDERING_MIX.percent(Interaction::BuyConfirm), 10.18);
        assert_eq!(ORDERING_MIX.percent(Interaction::AdminConfirm), 0.11);
        assert_eq!(BROWSING_MIX.percent(Interaction::SearchRequest), 12.00);
    }

    #[test]
    fn sampling_matches_weights() {
        let mut rng = SimRng::new(99);
        let mix = Workload::Ordering.mix();
        let n = 200_000;
        let mut counts = [0u64; Interaction::COUNT];
        for _ in 0..n {
            counts[mix.sample(&mut rng).index()] += 1;
        }
        for ix in Interaction::ALL {
            let expected = mix.probability(ix);
            let got = counts[ix.index()] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "{ix}: expected {expected:.4}, got {got:.4}"
            );
        }
    }

    #[test]
    fn mix_new_validates() {
        // Valid reconstruction of the browsing mix.
        let entries = [
            (Interaction::Home, 29.00),
            (Interaction::NewProducts, 11.00),
            (Interaction::BestSellers, 11.00),
            (Interaction::ProductDetail, 21.00),
            (Interaction::SearchRequest, 12.00),
            (Interaction::SearchResults, 11.00),
            (Interaction::ShoppingCart, 2.00),
            (Interaction::CustomerRegistration, 0.82),
            (Interaction::BuyRequest, 0.75),
            (Interaction::BuyConfirm, 0.69),
            (Interaction::OrderInquiry, 0.30),
            (Interaction::OrderDisplay, 0.25),
            (Interaction::AdminRequest, 0.10),
            (Interaction::AdminConfirm, 0.09),
        ];
        let mix = Mix::new(entries).unwrap();
        assert_eq!(&mix, &BROWSING_MIX);

        // Bad total.
        let mut bad = entries;
        bad[0].1 = 10.0;
        assert!(matches!(Mix::new(bad), Err(MixError::BadTotal(_))));

        // Duplicate.
        let mut dup = entries;
        dup[1].0 = Interaction::Home;
        assert!(matches!(
            Mix::new(dup),
            Err(MixError::DuplicateInteraction(Interaction::Home))
        ));

        // Negative.
        let mut neg = entries;
        neg[2].1 = -1.0;
        assert!(matches!(
            Mix::new(neg),
            Err(MixError::NegativeWeight(Interaction::BestSellers))
        ));
    }

    #[test]
    fn metric_labels() {
        assert_eq!(Workload::Browsing.metric_label(), "WIPSb");
        assert_eq!(Workload::Shopping.metric_label(), "WIPS");
        assert_eq!(Workload::Ordering.metric_label(), "WIPSo");
    }
}
