//! The request-level pre-key tier in front of the
//! [`opm_core::PlanCache`].
//!
//! A plan-cache hit still needs the structural [`PlanKey`], and that key
//! is computed from an assembled [`opm_core::Simulation`]: netlist parse,
//! MNA assembly and a hash of every matrix value, all to find a
//! plan the cache already holds. The pre-key skips that front end for
//! repeated plan inputs.
//!
//! - **Key.** A 128-bit [`WordHash`] over the document members
//!   [`api::plan_inputs`] reads ([`api::PLAN_MEMBERS`]: `netlist` or
//!   `model`, `probes`, `horizon`, `x0`, `options`) as posted. Strings
//!   are hashed a whole word at a time, numbers by bit pattern, tagged
//!   `Int` or `Num`.
//! - **Entry.** The structural [`PlanKey`] the members built, the
//!   netlist's own sources (bodies that share a plan may each carry
//!   their own `SIN`), the model's input count, and the members
//!   themselves, moved out of the document that first posted them.
//! - **Hit.** Confirmed by bit-exact equality of the members (`-0.0` is
//!   not `0.0`, `1` is not `1.0`), then the plan is looked up under the
//!   entry's [`PlanKey`]. No netlist parse, no assembly and no
//!   [`opm_core::cache::plan_key`] run unless that plan was evicted, in
//!   which case the caller rebuilds it under the same key.
//! - **Miss.** The caller's full path runs inside the tier's build and
//!   the entry is interned. A hash collision that fails confirmation,
//!   or a build this request waited on that failed, takes the full path
//!   uninterned, as the pattern tier does.
//!
//! The structural key stays the source of truth: two documents that
//! differ only in netlist whitespace are two pre-keys and one plan. The
//! tier is the production [`GateCache`], so single flight, panic
//! containment and LRU come from the model-checked code; `opm-verify
//! model-check` nests it over the plan gate with the plan evicted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use opm_core::cache::{PlanKey, WordHash};
use opm_core::gate::GateCache;
use opm_core::json::Json;
use opm_core::sync::StdSync;
use opm_waveform::InputSet;

use crate::api::{self, error_json};
use crate::Reply;

/// What a pre-key maps to.
pub(crate) struct PreEntry {
    /// The structural key of the plan the members built.
    pub plan_key: PlanKey,
    /// The netlist's own sources (`None` for a raw model).
    pub inputs: Option<InputSet>,
    /// The model's input count.
    pub num_inputs: usize,
    /// The [`api::PLAN_MEMBERS`] as posted, `None` where absent.
    members: Vec<Option<Json>>,
}

impl PreEntry {
    /// An entry for a plan built from some document's members; the tier
    /// moves the members in when it interns the entry.
    pub fn new(plan_key: PlanKey, inputs: Option<InputSet>, num_inputs: usize) -> Self {
        PreEntry {
            plan_key,
            inputs,
            num_inputs,
            members: Vec::new(),
        }
    }

    /// Whether `doc` carries exactly these members, bit for bit.
    fn matches(&self, doc: &Json) -> bool {
        api::PLAN_MEMBERS
            .iter()
            .zip(&self.members)
            .all(|(name, kept)| match (doc.get(name), kept) {
                (Some(posted), Some(kept)) => same(posted, kept),
                (posted, kept) => posted.is_none() && kept.is_none(),
            })
    }
}

/// Bit-exact document equality: `Json`'s `PartialEq` compares floats by
/// value, so it would merge `-0.0` with `0.0`.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// Moves the [`api::PLAN_MEMBERS`] out of `doc` (the first of each
/// name, as [`Json::get`] reads them). A string member gives back the
/// slack the parser grew it with, since the entry keeps it.
fn take_members(doc: &mut Json) -> Vec<Option<Json>> {
    let Json::Obj(pairs) = doc else {
        return vec![None; api::PLAN_MEMBERS.len()];
    };
    api::PLAN_MEMBERS
        .iter()
        .map(|name| {
            let (_, v) = pairs.iter_mut().find(|(k, _)| k == name)?;
            let mut v = std::mem::replace(v, Json::Null);
            if let Json::Str(s) = &mut v {
                s.shrink_to_fit();
            }
            Some(v)
        })
        .collect()
}

/// The pre-key of `doc`: its [`api::PLAN_MEMBERS`], each tagged present
/// or absent.
fn pre_key(doc: &Json) -> PlanKey {
    let mut h = WordHash::default();
    for name in api::PLAN_MEMBERS {
        match doc.get(name) {
            Some(v) => {
                h.word(1);
                hash_json(&mut h, v);
            }
            None => h.word(0),
        }
    }
    h.finish()
}

fn hash_json(h: &mut WordHash, v: &Json) {
    match v {
        Json::Null => h.word(0),
        Json::Bool(b) => {
            h.word(1);
            h.word(u64::from(*b));
        }
        Json::Int(i) => {
            h.word(2);
            h.word(*i as u64);
        }
        Json::Num(x) => {
            h.word(3);
            h.word(x.to_bits());
        }
        Json::Str(s) => {
            h.word(4);
            h.bytes(s.as_bytes());
        }
        Json::Arr(items) => {
            h.word(5);
            h.word(items.len() as u64);
            for item in items {
                hash_json(h, item);
            }
        }
        Json::Obj(pairs) => {
            h.word(6);
            h.word(pairs.len() as u64);
            for (k, item) in pairs {
                h.bytes(k.as_bytes());
                hash_json(h, item);
            }
        }
    }
}

/// How a document fared in the tier.
pub(crate) enum Lookup<B> {
    /// A confirmed hit.
    Hit(Arc<PreEntry>),
    /// A miss whose build ran here: the build's by-product.
    Built(B),
    /// A collision, or a build this request waited on that failed:
    /// take the full path, uninterned.
    Slow,
}

/// The pre-key tier: one [`PreEntry`] per distinct set of plan inputs,
/// as many as the plan cache holds plans.
pub(crate) struct PreKeyTier {
    gate: GateCache<PlanKey, Arc<PreEntry>, Reply, StdSync>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PreKeyTier {
    pub fn new(capacity: usize) -> Self {
        PreKeyTier {
            gate: GateCache::new(capacity, || {
                Reply::new(
                    500,
                    error_json("plan build panicked; the panicking request reports it"),
                )
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `doc` up. On a miss `build` runs the full path and returns
    /// the entry to intern plus a by-product for this request; the tier
    /// then moves the members out of `doc` into the entry. Every call is
    /// one hit or one miss in the counters.
    ///
    /// # Errors
    /// Whatever `build` returned, when it ran here.
    pub fn lookup<B>(
        &self,
        doc: &mut Json,
        build: impl FnOnce(&Json) -> Result<(PreEntry, B), Reply>,
    ) -> Result<Lookup<B>, Reply> {
        let mut built_here = false;
        let looked_up = self.gate.get_or_build_with(pre_key(doc), || {
            built_here = true;
            // Counted before the build, which may panic through.
            self.misses.fetch_add(1, Ordering::Relaxed);
            let (mut entry, by_product) = build(doc)?;
            entry.members = take_members(doc);
            Ok((Arc::new(entry), by_product))
        });
        let hit = matches!(&looked_up, Ok((entry, None)) if entry.matches(doc));
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else if !built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        match looked_up {
            Ok((entry, None)) if hit => Ok(Lookup::Hit(entry)),
            Ok((_, Some(by_product))) => Ok(Lookup::Built(by_product)),
            Err(e) if built_here => Err(e),
            _ => Ok(Lookup::Slow),
        }
    }

    /// `(hits, misses)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(x0: &str) -> Json {
        Json::parse(&format!(
            r#"{{"horizon": 1e-3, "x0": [{x0}], "windows": 2}}"#
        ))
        .unwrap()
    }

    /// Confirmation compares bits and number kinds, where `Json`'s
    /// `PartialEq` merges `-0.0` with `0.0`; members outside the plan
    /// inputs never matter.
    #[test]
    fn confirmation_is_bit_exact() {
        let (pos, neg) = (doc("0.0"), doc("-0.0"));
        assert_eq!(pos, neg);
        assert_ne!(pre_key(&pos), pre_key(&neg));
        let mut entry = PreEntry::new((0, 0), None, 1);
        entry.members = take_members(&mut pos.clone());
        assert!(entry.matches(&pos));
        assert!(!entry.matches(&neg));
        assert!(!entry.matches(&doc("0")), "an integer is not a float");
        let other_drive = Json::parse(r#"{"windows": 5, "x0": [0.0], "horizon": 1e-3}"#).unwrap();
        assert!(entry.matches(&other_drive));
        assert_eq!(pre_key(&other_drive), pre_key(&pos));
        assert!(!entry.matches(&Json::parse(r#"{"horizon": 1e-3}"#).unwrap()));
    }

    /// Word-at-a-time string hashing still separates strings that share
    /// a word-aligned prefix or differ only in their padded tail.
    #[test]
    fn strings_hash_by_length_and_every_byte() {
        let key = |s: &str| pre_key(&Json::Obj(vec![("netlist".into(), Json::str(s))]));
        let base = key("R1 in out 1k\n");
        for other in [
            "R1 in out 1k\n\0",
            "R1 in out 1k",
            "R1 in out 2k\n",
            "R1 in ou 1k\n",
        ] {
            assert_ne!(key(other), base, "{other:?}");
        }
        assert_eq!(key("R1 in out 1k\n"), base);
    }
}
