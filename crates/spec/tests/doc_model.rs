//! `Doc` is the paper's `(l, T)`: the four list specifications stepped over
//! it produce, label for label, the successors the plain model produces —
//! `l` a `Vec`, `T` a `BTreeSet`, `read` checked against `without(l, T)`.
//!
//! The model's step functions below are the pre-`Doc` implementations,
//! kept verbatim as the oracle. Random label streams cover stale anchors,
//! duplicate inserts, removes of tombstoned elements, Wooki ranges in both
//! orders, and `addAt` indices past the tail.

use ral_core::rng::{run_seeded_cases, Rng};
use ral_core::spec::{Spec, Step};
use ral_spec::addat::{AddAt2Spec, AddAt3Spec, AddAtOp, AddAtRetOp};
use ral_spec::rga::{Anchor, RgaOp, RgaSpec};
use ral_spec::seq::{position_of, Doc};
use ral_spec::wooki::{WookiAnchor, WookiOp, WookiSpec};
use std::collections::BTreeSet;

type E = u8;
type Model = (Vec<E>, BTreeSet<E>);

/// Element names drawn from `1..=POOL`: a stream runs out of fresh ones,
/// so duplicate inserts and stale anchors are common.
const POOL: E = 9;

fn without(l: &[E], tomb: &[E]) -> Vec<E> {
    l.iter().filter(|x| !tomb.contains(x)).cloned().collect()
}

fn is_subsequence(needle: &[E], hay: &[E]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

fn model_rga(state: &Model, label: &RgaOp<E>) -> Vec<Model> {
    let (l, t) = state;
    match label {
        RgaOp::AddAfter(anchor, a) => {
            if l.contains(a) {
                return vec![];
            }
            let at = match anchor {
                Anchor::Head => 0,
                Anchor::Elem(b) => match position_of(l, b) {
                    Some(p) => p + 1,
                    None => return vec![],
                },
            };
            let mut next = l.clone();
            next.insert(at, *a);
            vec![(next, t.clone())]
        }
        RgaOp::Remove(b) => model_remove(state, b),
        RgaOp::Read(s) => model_read(state, s),
    }
}

fn model_wooki(state: &Model, label: &WookiOp<E>) -> Vec<Model> {
    let (l, t) = state;
    match label {
        WookiOp::AddBetween(a, b, c) => {
            if l.contains(b) {
                return vec![];
            }
            let lo = match a {
                WookiAnchor::Begin => 0,
                WookiAnchor::Elem(x) => match position_of(l, x) {
                    Some(p) => p + 1,
                    None => return vec![],
                },
                WookiAnchor::End => return vec![],
            };
            let hi = match c {
                WookiAnchor::End => l.len(),
                WookiAnchor::Elem(y) => match position_of(l, y) {
                    Some(p) => p,
                    None => return vec![],
                },
                WookiAnchor::Begin => return vec![],
            };
            if lo > hi {
                return vec![];
            }
            (lo..=hi)
                .map(|at| {
                    let mut next = l.clone();
                    next.insert(at, *b);
                    (next, t.clone())
                })
                .collect()
        }
        WookiOp::Remove(a) => model_remove(state, a),
        WookiOp::Read(s) => model_read(state, s),
    }
}

fn model_addat2(state: &Model, label: &AddAtOp<E>) -> Vec<Model> {
    let (l, t) = state;
    match label {
        AddAtOp::AddAt(a, k) => {
            if l.contains(a) {
                return vec![];
            }
            let mut succs = Vec::new();
            for p in 0..=l.len() {
                let visible_prefix = l[..p].iter().filter(|x| !t.contains(*x)).count();
                if visible_prefix == *k {
                    let mut next = l.clone();
                    next.insert(p, *a);
                    let cand = (next, t.clone());
                    if !succs.contains(&cand) {
                        succs.push(cand);
                    }
                }
            }
            let visible = l.iter().filter(|x| !t.contains(*x)).count();
            if visible < *k {
                let mut next = l.clone();
                next.push(*a);
                let cand = (next, t.clone());
                if !succs.contains(&cand) {
                    succs.push(cand);
                }
            }
            succs
        }
        AddAtOp::Remove(a) => model_remove(state, a),
        AddAtOp::Read(s) => model_read(state, s),
    }
}

fn model_addat3(state: &Model, label: &AddAtRetOp<E>) -> Vec<Model> {
    let (l, t) = state;
    match label {
        AddAtRetOp::AddAt(a, k, s) => {
            if l.contains(a) {
                return vec![];
            }
            let Some(i) = position_of(s, a) else {
                return vec![];
            };
            let s1 = &s[..i];
            let s2 = &s[i + 1..];
            if s1.len() != *k && !(s1.len() < *k && s2.is_empty()) {
                return vec![];
            }
            let observed: Vec<E> = s1.iter().chain(s2).cloned().collect();
            if !is_subsequence(&observed, l) {
                return vec![];
            }
            let at = match s1.last() {
                None => 0,
                Some(b) => match position_of(l, b) {
                    Some(p) => p + 1,
                    None => return vec![],
                },
            };
            let mut next = l.clone();
            next.insert(at, *a);
            vec![(next, t.clone())]
        }
        AddAtRetOp::Remove(a, s) => {
            if !l.contains(a) || s.contains(a) || !is_subsequence(s, l) {
                return vec![];
            }
            let mut tomb = t.clone();
            tomb.insert(*a);
            vec![(l.clone(), tomb)]
        }
        AddAtRetOp::Read(s) => model_read(state, s),
    }
}

fn model_remove(state: &Model, a: &E) -> Vec<Model> {
    let (l, t) = state;
    if !l.contains(a) {
        return vec![];
    }
    let mut tomb = t.clone();
    tomb.insert(*a);
    vec![(l.clone(), tomb)]
}

fn model_read(state: &Model, s: &[E]) -> Vec<Model> {
    let (l, t) = state;
    let tomb: Vec<E> = t.iter().cloned().collect();
    if without(l, &tomb) == s {
        vec![state.clone()]
    } else {
        vec![]
    }
}

/// The model state a `Doc` stands for.
fn model(doc: &Doc<E>) -> Model {
    let l = doc.elements().copied().collect();
    let t = doc.iter().filter(|(_, t)| *t).map(|(e, _)| *e).collect();
    (l, t)
}

fn elem(rng: &mut Rng) -> E {
    rng.random_range(1..=POOL)
}

/// A read of `state`: its true value half the time, else one that differs
/// by an element (or is arbitrary).
fn read_of(rng: &mut Rng, state: &Model) -> Vec<E> {
    let tomb: Vec<E> = state.1.iter().copied().collect();
    let mut s = without(&state.0, &tomb);
    match rng.random_range(0..6u8) {
        0..=2 => {}
        3 if !s.is_empty() => {
            s.remove(rng.random_range(0..s.len()));
        }
        4 => s.insert(rng.random_range(0..=s.len()), elem(rng)),
        _ => s = (0..rng.random_range(0..4)).map(|_| elem(rng)).collect(),
    }
    s
}

/// A random sub-sequence of `l`.
fn sub(rng: &mut Rng, l: &[E]) -> Vec<E> {
    l.iter().copied().filter(|_| rng.random_bool(0.6)).collect()
}

/// Steps `spec` over `Doc`s and the model over their images in lockstep
/// along a random label stream, checking successor lists (in order),
/// `reads` against `without`, and that equal states fingerprint equally.
/// Returns how many labels were admitted.
fn lockstep<S: Spec<State = Doc<E>>>(
    spec: &S,
    rng: &mut Rng,
    model_step: impl Fn(&Model, &S::Label) -> Vec<Model>,
    mut label: impl FnMut(&mut Rng, &Model) -> S::Label,
) -> usize {
    let mut states = vec![spec.initial()];
    let mut admitted = 0;
    for _ in 0..40 {
        let l = label(rng, &model(&states[0]));
        let mut next = Vec::new();
        for doc in &states {
            let m = model(doc);
            let mut succs = Vec::new();
            if spec.step(doc, &l, &mut succs) == Step::Unchanged {
                succs.push(doc.clone());
            }
            let images: Vec<Model> = succs.iter().map(model).collect();
            assert_eq!(images, model_step(&m, &l), "{l:?} from {m:?}");
            for s in &succs {
                assert_eq!(spec.state_fingerprint(s), s.fingerprint());
                let rebuilt: Doc<E> = s.iter().map(|(e, t)| (*e, t)).collect();
                assert_eq!((s, s.fingerprint()), (&rebuilt, rebuilt.fingerprint()));
            }
            let s = read_of(rng, &m);
            let tomb: Vec<E> = m.1.iter().copied().collect();
            assert_eq!(doc.reads(&s), without(&m.0, &tomb) == s, "{s:?} on {m:?}");
            next.extend(succs);
        }
        if next.is_empty() {
            continue; // rejected everywhere: keep the states
        }
        admitted += 1;
        next.truncate(6);
        for a in &next {
            for b in &next {
                assert_eq!(a == b, model(a) == model(b));
                if a == b {
                    assert_eq!(a.fingerprint(), b.fingerprint());
                }
            }
        }
        states = next;
    }
    admitted
}

fn rga_label(rng: &mut Rng, m: &Model) -> RgaOp<E> {
    match rng.random_range(0..10u8) {
        0..=4 => {
            let anchor = if rng.random_bool(0.2) {
                Anchor::Head
            } else {
                Anchor::Elem(elem(rng))
            };
            RgaOp::AddAfter(anchor, elem(rng))
        }
        5..=7 => RgaOp::Remove(elem(rng)),
        _ => RgaOp::Read(read_of(rng, m)),
    }
}

fn wooki_anchor(rng: &mut Rng) -> WookiAnchor<E> {
    match rng.random_range(0..10u8) {
        0 => WookiAnchor::Begin,
        1 => WookiAnchor::End,
        _ => WookiAnchor::Elem(elem(rng)),
    }
}

fn wooki_label(rng: &mut Rng, m: &Model) -> WookiOp<E> {
    match rng.random_range(0..10u8) {
        0..=4 => {
            let (a, c) = match rng.random_range(0..3u8) {
                0 => (WookiAnchor::Begin, WookiAnchor::End),
                _ => (wooki_anchor(rng), wooki_anchor(rng)),
            };
            WookiOp::AddBetween(a, elem(rng), c)
        }
        5..=7 => WookiOp::Remove(elem(rng)),
        _ => WookiOp::Read(read_of(rng, m)),
    }
}

fn addat2_label(rng: &mut Rng, m: &Model) -> AddAtOp<E> {
    match rng.random_range(0..10u8) {
        0..=4 => AddAtOp::AddAt(elem(rng), rng.random_range(0..=m.0.len() + 2)),
        5..=7 => AddAtOp::Remove(elem(rng)),
        _ => AddAtOp::Read(read_of(rng, m)),
    }
}

fn addat3_label(rng: &mut Rng, m: &Model) -> AddAtRetOp<E> {
    match rng.random_range(0..10u8) {
        0..=4 => {
            let a = elem(rng);
            let mut s = sub(rng, &m.0);
            if rng.random_bool(0.2) {
                s.push(elem(rng)); // an element the origin cannot have seen
            }
            let i = rng.random_range(0..=s.len());
            s.insert(i, a);
            let k = if rng.random_bool(0.7) {
                i
            } else {
                rng.random_range(0..=s.len() + 1)
            };
            AddAtRetOp::AddAt(a, k, s)
        }
        5..=7 => {
            let a = elem(rng);
            let mut s = sub(rng, &m.0);
            if !rng.random_bool(0.2) {
                s.retain(|x| *x != a);
            }
            AddAtRetOp::Remove(a, s)
        }
        _ => AddAtRetOp::Read(read_of(rng, m)),
    }
}

#[test]
fn doc_steps_as_the_model_for_all_four_specs() {
    let mut admitted = [0; 4];
    run_seeded_cases("doc_model", 48, |_, rng| {
        admitted[0] += lockstep(&RgaSpec::new(), rng, model_rga, rga_label);
        admitted[1] += lockstep(&WookiSpec::new(), rng, model_wooki, wooki_label);
        admitted[2] += lockstep(&AddAt2Spec::new(), rng, model_addat2, addat2_label);
        admitted[3] += lockstep(&AddAt3Spec::new(), rng, model_addat3, addat3_label);
    });
    // Every stream keeps moving: the specs admit a fair share of labels.
    assert!(admitted.iter().all(|&n| n > 48 * 8), "{admitted:?}");
}

#[test]
fn one_document_two_insertion_orders_one_fingerprint() {
    run_seeded_cases("doc_fingerprint_orders", 64, |_, rng| {
        let n = rng.random_range(0..40usize);
        let target: Vec<(u16, bool)> = (0..n as u16).map(|e| (e, rng.random_bool(0.3))).collect();
        // Left to right, then an arbitrary order: each element goes in at
        // its rank among those already placed; tombstones come last.
        let mut order: Vec<usize> = (0..n).collect();
        let mut built = Vec::new();
        for shuffle in [false, true] {
            if shuffle {
                rng.shuffle(&mut order);
            }
            let mut doc = Doc::new();
            let mut placed: Vec<usize> = Vec::new();
            for &i in &order {
                let at = placed.partition_point(|&p| p < i);
                placed.insert(at, i);
                doc = doc.insert(at, target[i].0);
            }
            for (i, &(_, dead)) in target.iter().enumerate() {
                if dead {
                    doc = doc.tombstone(i);
                }
            }
            built.push(doc);
        }
        let direct: Doc<u16> = target.iter().copied().collect();
        for doc in &built {
            assert_eq!(doc, &direct);
            assert_eq!(doc.fingerprint(), direct.fingerprint());
        }
    });
}
