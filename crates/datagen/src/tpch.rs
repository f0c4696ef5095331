//! TPC-H-shaped multi-relation workloads for query-plan experiments.
//!
//! Scaled-down analogues of TPC-H Q3 and Q9: a chain of foreign-key
//! joins (customer ⋈ orders ⋈ lineitem, part ⋈ lineitem ⋈ orders) with
//! a selection at the bottom and a group-by at the top. Foreign keys
//! draw from a Zipf(θ) distribution so the plan inherits the skew
//! scenarios of the single-join workloads, and all cardinalities scale
//! with the capacity factor K exactly like [`crate::WorkloadSpec`].
//!
//! The generator produces *relations only*; the plan shape over them
//! lives in `triton-plan` (which depends on this crate, not the other
//! way around).

use crate::distributions::Zipf;
use crate::relation::Relation;
use crate::rng::Rng;
use crate::workload::M;

/// Which TPC-H-shaped query the workload feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchQuery {
    /// Q3-like: σ(customer) ⋈ orders ⋈ lineitem, group by orderkey.
    Q3,
    /// Q9-like: σ(part) ⋈ lineitem ⋈ orders, group by orderkey.
    Q9,
}

impl TpchQuery {
    /// Short label for reports and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            TpchQuery::Q3 => "q3",
            TpchQuery::Q9 => "q9",
        }
    }

    /// Names of the base relations, in input order.
    pub fn input_names(&self) -> &'static [&'static str] {
        match self {
            TpchQuery::Q3 => &["customer", "orders", "lineitem"],
            TpchQuery::Q9 => &["part", "lineitem", "orders"],
        }
    }
}

/// Specification of a TPC-H-shaped workload. Cardinalities follow the
/// TPC-H ratios loosely: lineitem is the fact table, orders is 4x
/// smaller, and the filtered dimension (customer / part) 32x smaller.
#[derive(Debug, Clone)]
pub struct TpchSpec {
    /// Which query shape to feed.
    pub query: TpchQuery,
    /// Lineitem cardinality in *modeled* tuples (paper scale).
    pub lineitem_tuples_modeled: u64,
    /// Capacity scale factor K; actual tuples = modeled / K.
    pub scale: u64,
    /// Zipf exponent of every foreign-key column (0 = uniform).
    pub zipf_theta: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl TpchSpec {
    /// Q3-like default at `m` million modeled lineitem tuples, scale `k`.
    pub fn q3(m: u64, k: u64) -> Self {
        TpchSpec {
            query: TpchQuery::Q3,
            lineitem_tuples_modeled: m * M,
            scale: k,
            zipf_theta: 0.0,
            seed: 0x0712_1703,
        }
    }

    /// Q9-like default at `m` million modeled lineitem tuples, scale `k`.
    pub fn q9(m: u64, k: u64) -> Self {
        TpchSpec {
            query: TpchQuery::Q9,
            lineitem_tuples_modeled: m * M,
            scale: k,
            zipf_theta: 0.0,
            seed: 0x0712_1709,
        }
    }

    /// Actual lineitem tuples executed functionally.
    pub fn lineitem_tuples(&self) -> usize {
        (self.lineitem_tuples_modeled / self.scale).max(8) as usize
    }

    /// Actual orders tuples (lineitem / 4).
    pub fn orders_tuples(&self) -> usize {
        (self.lineitem_tuples() / 4).max(2)
    }

    /// Actual dimension tuples — customer (Q3) or part (Q9): orders / 8.
    pub fn dimension_tuples(&self) -> usize {
        (self.orders_tuples() / 8).max(2)
    }

    /// Total actual tuples across all base relations.
    pub fn total_tuples(&self) -> u64 {
        (self.lineitem_tuples() + self.orders_tuples() + self.dimension_tuples()) as u64
    }

    /// Generate the base relations, in [`TpchQuery::input_names`] order.
    pub fn generate(&self) -> TpchWorkload {
        let mut rng = Rng::seed_from_u64(self.seed);
        let n_l = self.lineitem_tuples();
        let n_o = self.orders_tuples();
        let n_d = self.dimension_tuples();
        let zipf = |n: usize| (self.zipf_theta > 0.0).then(|| Zipf::new(n, self.zipf_theta));

        // A foreign-key column into a dimension of n keys.
        let mut fk_column = |n: usize, count: usize| -> Vec<u64> {
            let z = zipf(n);
            (0..count)
                .map(|_| match &z {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range_u64(1, n as u64),
                })
                .collect()
        };

        let inputs = match self.query {
            TpchQuery::Q3 => {
                // customer(custkey pk, rid) ⋈ orders(custkey fk,
                // orderkey pk) ⋈ lineitem(orderkey fk, rid).
                let o_fk = fk_column(n_d, n_o);
                let l_fk = fk_column(n_o, n_l);
                let mut c_keys: Vec<u64> = (1..=n_d as u64).collect();
                rng.shuffle(&mut c_keys);
                let c_rids: Vec<u64> = (0..n_d).map(|_| rng.next_u64()).collect();
                let mut o_rids: Vec<u64> = (1..=n_o as u64).collect();
                rng.shuffle(&mut o_rids);
                let l_rids: Vec<u64> = (0..n_l).map(|_| rng.next_u64()).collect();
                vec![
                    Relation::from_columns(c_keys, c_rids),
                    Relation::from_columns(o_fk, o_rids),
                    Relation::from_columns(l_fk, l_rids),
                ]
            }
            TpchQuery::Q9 => {
                // part(partkey pk, rid) ⋈ lineitem(partkey fk,
                // orderkey fk) ⋈ orders(orderkey pk, rid).
                let l_fk_part = fk_column(n_d, n_l);
                let l_fk_order = fk_column(n_o, n_l);
                let mut p_keys: Vec<u64> = (1..=n_d as u64).collect();
                rng.shuffle(&mut p_keys);
                let p_rids: Vec<u64> = (0..n_d).map(|_| rng.next_u64()).collect();
                let mut o_keys: Vec<u64> = (1..=n_o as u64).collect();
                rng.shuffle(&mut o_keys);
                let o_rids: Vec<u64> = (0..n_o).map(|_| rng.next_u64()).collect();
                vec![
                    Relation::from_columns(p_keys, p_rids),
                    Relation::from_columns(l_fk_part, l_fk_order),
                    Relation::from_columns(o_keys, o_rids),
                ]
            }
        };

        TpchWorkload {
            inputs,
            spec: self.clone(),
        }
    }
}

/// A generated TPC-H-shaped workload: base relations plus the spec.
#[derive(Debug, Clone)]
pub struct TpchWorkload {
    /// Base relations, in [`TpchQuery::input_names`] order.
    pub inputs: Vec<Relation>,
    /// The spec that produced them.
    pub spec: TpchSpec,
}

impl TpchWorkload {
    /// Total actual tuples across all base relations.
    pub fn total_tuples(&self) -> u64 {
        self.inputs.iter().map(|r| r.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q3_shapes_and_ranges() {
        let spec = TpchSpec::q3(8, 512);
        let w = spec.generate();
        assert_eq!(w.inputs.len(), 3);
        let (c, o, l) = (&w.inputs[0], &w.inputs[1], &w.inputs[2]);
        assert_eq!(l.len(), spec.lineitem_tuples());
        assert_eq!(o.len(), spec.orders_tuples());
        assert_eq!(c.len(), spec.dimension_tuples());
        // customer keys are a permutation of 1..=n_d.
        let mut ck = c.keys.to_vec();
        ck.sort_unstable();
        assert_eq!(ck, (1..=c.len() as u64).collect::<Vec<_>>());
        // orders: custkey FK in range, orderkey a permutation.
        assert!(o.keys.iter().all(|&k| (1..=c.len() as u64).contains(&k)));
        let mut ok = o.rids.to_vec();
        ok.sort_unstable();
        assert_eq!(ok, (1..=o.len() as u64).collect::<Vec<_>>());
        // lineitem: orderkey FK in range.
        assert!(l.keys.iter().all(|&k| (1..=o.len() as u64).contains(&k)));
    }

    #[test]
    fn q9_shapes_and_ranges() {
        let spec = TpchSpec::q9(8, 512);
        let w = spec.generate();
        let (p, l, o) = (&w.inputs[0], &w.inputs[1], &w.inputs[2]);
        let mut pk = p.keys.to_vec();
        pk.sort_unstable();
        assert_eq!(pk, (1..=p.len() as u64).collect::<Vec<_>>());
        let mut ok = o.keys.to_vec();
        ok.sort_unstable();
        assert_eq!(ok, (1..=o.len() as u64).collect::<Vec<_>>());
        // lineitem: partkey FK as key, orderkey FK as rid.
        assert!(l.keys.iter().all(|&k| (1..=p.len() as u64).contains(&k)));
        assert!(l.rids.iter().all(|&k| (1..=o.len() as u64).contains(&k)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TpchSpec::q3(8, 512).generate();
        let b = TpchSpec::q3(8, 512).generate();
        for (x, y) in a.inputs.iter().zip(&b.inputs) {
            assert_eq!(x.keys, y.keys);
            assert_eq!(x.rids, y.rids);
        }
    }

    #[test]
    fn zipf_theta_concentrates_foreign_keys() {
        let mut spec = TpchSpec::q3(8, 512);
        let uniform = spec.generate();
        spec.zipf_theta = 1.5;
        let skewed = spec.generate();
        let head_count = |r: &Relation, n: usize| {
            let head = (n / 100).max(1) as u64;
            r.keys.iter().filter(|&&k| k <= head).count()
        };
        let n_o = spec.orders_tuples();
        assert!(
            head_count(&skewed.inputs[2], n_o) > head_count(&uniform.inputs[2], n_o) * 2,
            "θ must concentrate lineitem FKs on hot orderkeys"
        );
    }
}
