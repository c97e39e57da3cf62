//! Alternating marking tree automata (Section 5.3 of the paper).
//!
//! Queries are executed by compiling them into a non-deterministic marking
//! automaton over the first-child / next-sibling binary view of the XML
//! tree.  Transitions are guarded by finite or co-finite tag sets and carry
//! Boolean formulas over the atoms `↓₁q` (an accepting run from state `q` on
//! the first child), `↓₂q` (on the next sibling), `mark` (record the current
//! node) and built-in text predicates.
//!
//! Deviation from the paper: when several transitions of the same state
//! apply to a node, SXSI-rs evaluates them in compiler-defined order and the
//! *first* satisfied transition provides the state's result.  The compiler
//! orders specific transitions before default self-loops and guarantees that
//! an earlier satisfied transition collects a superset of the marks of the
//! later ones, so the semantics (and in particular exact counting) coincide
//! with the paper's union-of-runs formulation for every compiled query.

use std::fmt;
use sxsi_text::TextPredicate;
use sxsi_tree::TagId;

/// Identifier of an automaton state.
pub type StateId = u8;

/// Maximum number of states of a compiled automaton (a query of `k` steps —
/// filters included — uses `k + 1` states).
pub const MAX_STATES: usize = 64;

/// A set of states, represented as a 64-bit bitset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StateSet(pub u64);

impl StateSet {
    /// The empty set.
    pub const EMPTY: StateSet = StateSet(0);

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `q` is in the set.
    #[inline]
    pub fn contains(self, q: StateId) -> bool {
        (self.0 >> q) & 1 == 1
    }

    /// Inserts `q`.
    #[inline]
    pub fn insert(&mut self, q: StateId) {
        self.0 |= 1u64 << q;
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: StateSet) -> StateSet {
        StateSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: StateSet) -> StateSet {
        StateSet(self.0 & other.0)
    }

    /// Whether every state of `self` is also in `other`.
    #[inline]
    pub fn is_subset_of(self, other: StateSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of states in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Number of member states smaller than `q` — the position of `q`
    /// among the members when it is one.
    #[inline]
    pub fn rank(self, q: StateId) -> usize {
        (self.0 & ((1u64 << q) - 1)).count_ones() as usize
    }

    /// Iterator over the member states.
    pub fn iter(self) -> impl Iterator<Item = StateId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let q = bits.trailing_zeros() as StateId;
                bits &= bits - 1;
                Some(q)
            }
        })
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, q) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "q{q}")?;
        }
        write!(f, "}}")
    }
}

/// A finite or co-finite set of tag identifiers guarding a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// The transition fires on exactly these tags.
    Finite(Vec<TagId>),
    /// The transition fires on every tag except these.
    CoFinite(Vec<TagId>),
}

impl Guard {
    /// Whether the guard admits `tag`.
    pub fn matches(&self, tag: TagId) -> bool {
        match self {
            Guard::Finite(tags) => tags.contains(&tag),
            Guard::CoFinite(excluded) => !excluded.contains(&tag),
        }
    }

    /// The finite tag list, if the guard is finite.
    pub fn finite_tags(&self) -> Option<&[TagId]> {
        match self {
            Guard::Finite(tags) => Some(tags),
            Guard::CoFinite(_) => None,
        }
    }
}

/// Boolean formulas over down-atoms, marking and built-in predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Record the current node as a result.
    Mark,
    /// There is an accepting run from the given state on the first child.
    Down1(StateId),
    /// There is an accepting run from the given state on the next sibling.
    Down2(StateId),
    /// Built-in predicate (index into [`Automaton::predicates`]) evaluated on
    /// the current node.
    Pred(usize),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction (evaluated left-to-right, first satisfied branch wins —
    /// see the module documentation).
    Or(Box<Formula>, Box<Formula>),
    /// Negation (the marks of the negated formula are discarded).
    Not(Box<Formula>),
}

impl Formula {
    /// Conjunction constructor that simplifies `True` operands.
    pub fn and(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, x) | (x, Formula::True) => x,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (a, b) => Formula::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction constructor that simplifies trivial operands.
    pub fn or(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::False, x) | (x, Formula::False) => x,
            (Formula::True, _) => Formula::True,
            (a, b) => Formula::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Adds every state referenced by a `↓₁`/`↓₂` atom into the sets.
    pub fn collect_down_states(&self, down1: &mut StateSet, down2: &mut StateSet) {
        match self {
            Formula::Down1(q) => down1.insert(*q),
            Formula::Down2(q) => down2.insert(*q),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_down_states(down1, down2);
                b.collect_down_states(down1, down2);
            }
            Formula::Not(a) => a.collect_down_states(down1, down2),
            _ => {}
        }
    }

    /// Whether the formula contains a `mark` atom.
    pub fn contains_mark(&self) -> bool {
        match self {
            Formula::Mark => true,
            Formula::And(a, b) | Formula::Or(a, b) => a.contains_mark() || b.contains_mark(),
            Formula::Not(a) => a.contains_mark(),
            _ => false,
        }
    }
}

/// One transition: `state, guard → formula`.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Guard over the current node's tag.
    pub guard: Guard,
    /// The formula that must hold.
    pub formula: Formula,
}

/// Per-state metadata precomputed by the compiler to drive the evaluator's
/// jumping decisions (Section 5.4.1).
#[derive(Debug, Clone, Default)]
pub struct StateInfo {
    /// The state accepts at `Nil` (it is a bottom state).
    pub bottom: bool,
    /// The state has a co-finite default transition `q, L∖rel → ↓₁q ∧ ↓₂q`
    /// (the shape produced for `descendant` steps), so a set of such states
    /// can jump to relevant-labeled nodes.
    pub descendant_loop: bool,
    /// Tags appearing in the finite guards of this state's non-default
    /// transitions (the state's *relevant* labels).
    pub relevant_tags: Vec<TagId>,
    /// `Some(tag)` when the state is a pure accumulator: its only effect is
    /// to mark every `tag`-labeled node of the region (no further states, no
    /// predicates, no filters).  Enables the lazy whole-subtree results of
    /// Section 5.5.4.
    pub accumulator: Option<TagId>,
}

/// A compiled marking automaton.
#[derive(Debug, Clone)]
pub struct Automaton {
    /// Transitions of each state, in evaluation order (specific first).
    pub transitions: Vec<Vec<Transition>>,
    /// States that must accept at the root.
    pub top_states: StateSet,
    /// States accepting at `Nil` (empty forests).
    pub bottom_states: StateSet,
    /// Built-in text predicates referenced by `Formula::Pred`.
    pub predicates: Vec<TextPredicate>,
    /// Per-state metadata.
    pub state_info: Vec<StateInfo>,
    /// States whose formulas may mark nodes.
    pub marking_states: StateSet,
    /// Whether counting mode can sum marks exactly (no query shape that may
    /// attribute one result node to several witnesses).  When `false` the
    /// evaluator falls back to materializing and counting distinct nodes.
    pub exact_counting: bool,
    /// Whether every mark the evaluator emits (after the rollback of failed
    /// formula branches) is guaranteed to survive into the final output —
    /// i.e. no ancestor-level formula can discard an already-accumulated
    /// result value.  When `true` the evaluator may *stop the run* as soon
    /// as enough marks have been emitted (existence queries become O(first
    /// match)); when `false` truncated runs would be unsound and the
    /// evaluator runs to completion.  Computed by
    /// [`Automaton::analyze_truncation_safety`].
    pub truncation_safe: bool,
}

impl Automaton {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The transitions of state `q`.
    pub fn transitions_of(&self, q: StateId) -> &[Transition] {
        &self.transitions[q as usize]
    }

    /// Whether every state of `set` is a bottom state with a descendant-style
    /// default loop, i.e. the set is eligible for relevant-node jumping.
    pub fn is_jumpable(&self, set: StateSet) -> bool {
        !set.is_empty()
            && set.iter().all(|q| {
                let info = &self.state_info[q as usize];
                info.bottom && info.descendant_loop
            })
    }

    /// The union of relevant tags of the states in `set`.
    pub fn relevant_tags(&self, set: StateSet) -> Vec<TagId> {
        let mut tags: Vec<TagId> = set
            .iter()
            .flat_map(|q| self.state_info[q as usize].relevant_tags.iter().copied())
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// Union of the `↓₂` targets over all transitions of the states in `set`.
    pub fn down2_closure(&self, set: StateSet) -> StateSet {
        let mut down1 = StateSet::EMPTY;
        let mut down2 = StateSet::EMPTY;
        for q in set.iter() {
            for t in self.transitions_of(q) {
                t.formula.collect_down_states(&mut down1, &mut down2);
            }
        }
        down2
    }

    /// If `set` is a single pure-accumulator state, returns its tag.
    pub fn accumulator_tag(&self, set: StateSet) -> Option<TagId> {
        if set.len() != 1 {
            return None;
        }
        let q = set.iter().next().expect("non-empty");
        self.state_info[q as usize].accumulator
    }

    // -----------------------------------------------------------------
    // Truncation-safety analysis (early termination)
    // -----------------------------------------------------------------

    /// States whose sub-runs can contribute result values (a `mark` atom is
    /// reachable through their transition formulas), computed as a least
    /// fixpoint over the down-atoms.
    fn value_states(&self) -> StateSet {
        let mut v = StateSet::EMPTY;
        loop {
            let before = v;
            for (q, trans) in self.transitions.iter().enumerate() {
                if v.contains(q as StateId) {
                    continue;
                }
                let produces = trans.iter().any(|t| {
                    t.formula.contains_mark() || {
                        let mut d1 = StateSet::EMPTY;
                        let mut d2 = StateSet::EMPTY;
                        t.formula.collect_down_states(&mut d1, &mut d2);
                        !d1.union(d2).intersect(v).is_empty()
                    }
                });
                if produces {
                    v.insert(q as StateId);
                }
            }
            if v == before {
                return v;
            }
        }
    }

    /// States that accept on *every* forest: bottom states for which, at any
    /// node label, some transition applies whose formula is satisfied
    /// unconditionally (given that the recursively referenced states are
    /// themselves always-accepting).  Computed as a greatest fixpoint.
    fn always_accepting_states(&self) -> StateSet {
        fn unconditional(f: &Formula, always: StateSet) -> bool {
            match f {
                Formula::True | Formula::Mark => true,
                Formula::Down1(q) | Formula::Down2(q) => always.contains(*q),
                Formula::And(a, b) => unconditional(a, always) && unconditional(b, always),
                Formula::Or(a, b) => unconditional(a, always) || unconditional(b, always),
                _ => false,
            }
        }
        let mut always = self.bottom_states;
        loop {
            let before = always;
            for q in before.iter() {
                let qualifying: Vec<&Guard> = self
                    .transitions_of(q)
                    .iter()
                    .filter(|t| unconditional(&t.formula, always))
                    .map(|t| &t.guard)
                    .collect();
                // The qualifying guards must jointly cover every label: a
                // co-finite qualifying guard whose exclusions are each
                // admitted by some other qualifying guard.
                let covered = qualifying.iter().any(|g| match g {
                    Guard::CoFinite(excl) => {
                        excl.iter().all(|&t| qualifying.iter().any(|h| h.matches(t)))
                    }
                    Guard::Finite(_) => false,
                });
                if !covered {
                    always.0 &= !(1u64 << q);
                }
            }
            if always == before {
                return always;
            }
        }
    }

    /// Decides [`Automaton::truncation_safe`]: conservatively verifies that
    /// once a result value enters a per-node result map it is always pulled
    /// into the output — no `Or` short-circuit, `Not`, failing conjunct or
    /// skipped lower-priority transition can drop it.  (Marks discarded
    /// *locally* by a failing transition formula are not a concern: the
    /// evaluator rolls its emission counter back on formula failure.)
    pub fn analyze_truncation_safety(&self) -> bool {
        let v = self.value_states();
        let always = self.always_accepting_states();

        // The down-atoms of `f` targeting value states, split by direction.
        fn value_atoms(f: &Formula, v: StateSet) -> (StateSet, StateSet) {
            let mut d1 = StateSet::EMPTY;
            let mut d2 = StateSet::EMPTY;
            f.collect_down_states(&mut d1, &mut d2);
            (d1.intersect(v), d2.intersect(v))
        }
        fn exposed(f: &Formula, v: StateSet) -> bool {
            let (d1, d2) = value_atoms(f, v);
            !d1.union(d2).is_empty()
        }
        fn can_fail(f: &Formula, always: StateSet) -> bool {
            match f {
                Formula::True | Formula::Mark => false,
                Formula::Down1(q) | Formula::Down2(q) => !always.contains(*q),
                Formula::And(a, b) => can_fail(a, always) || can_fail(b, always),
                Formula::Or(a, b) => can_fail(a, always) && can_fail(b, always),
                _ => true,
            }
        }
        // Success-path safety of one formula: a satisfied formula must have
        // pulled every value atom it contains.
        fn formula_safe(f: &Formula, v: StateSet, always: StateSet) -> bool {
            match f {
                Formula::And(a, b) => formula_safe(a, v, always) && formula_safe(b, v, always),
                Formula::Or(a, b) => {
                    // A satisfied left branch skips the right; a failed left
                    // branch has discarded whatever the left pulled.
                    formula_safe(a, v, always)
                        && formula_safe(b, v, always)
                        && !exposed(b, v)
                        && !(exposed(a, v) && can_fail(a, always))
                }
                Formula::Not(a) => !exposed(a, v),
                _ => true,
            }
        }
        fn guards_may_overlap(a: &Guard, b: &Guard) -> bool {
            match (a, b) {
                (Guard::Finite(x), Guard::Finite(y)) => x.iter().any(|t| y.contains(t)),
                (Guard::Finite(x), Guard::CoFinite(y)) | (Guard::CoFinite(y), Guard::Finite(x)) => {
                    x.iter().any(|t| !y.contains(t))
                }
                (Guard::CoFinite(_), Guard::CoFinite(_)) => true,
            }
        }
        /// Whether every tag admitted by `inner` is admitted by `outer`.
        fn guard_covers(outer: &Guard, inner: &Guard) -> bool {
            match (inner, outer) {
                (Guard::Finite(tags), _) => tags.iter().all(|&t| outer.matches(t)),
                (Guard::CoFinite(excl), Guard::CoFinite(excl2)) => {
                    excl2.iter().all(|t| excl.contains(t))
                }
                (Guard::CoFinite(_), Guard::Finite(_)) => false,
            }
        }
        let subset = |(a1, a2): (StateSet, StateSet), (b1, b2): (StateSet, StateSet)| {
            a1.is_subset_of(b1) && a2.is_subset_of(b2)
        };

        for trans in &self.transitions {
            for (i, t) in trans.iter().enumerate() {
                if !formula_safe(&t.formula, v, always) {
                    return false;
                }
                let pulled_i = value_atoms(&t.formula, v);
                // A *satisfied* transition skipping later ones loses no
                // marks: the compiler guarantees an earlier satisfied
                // transition collects a superset of the marks of the later
                // ones (see the module documentation) — deliberately
                // dropping only redundant copies, as in nested descendant
                // chains.  Only the failure path below needs checking.
                // A failed transition falls through to the next applicable
                // one: every later overlapping transition must re-pull this
                // transition's value atoms (whichever fires first), and at
                // least one unconditional transition must cover the guard so
                // a pull is guaranteed to happen.
                if can_fail(&t.formula, always) && !pulled_i.0.union(pulled_i.1).is_empty() {
                    let overlapping_repull = trans[i + 1..].iter().all(|u| {
                        !guards_may_overlap(&t.guard, &u.guard)
                            || subset(pulled_i, value_atoms(&u.formula, v))
                    });
                    let rescued = trans[i + 1..].iter().any(|u| {
                        !can_fail(&u.formula, always) && guard_covers(&u.guard, &t.guard)
                    });
                    if !(overlapping_repull && rescued) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Human-readable rendering of the automaton (used by tests and the
    /// `--explain` mode of the examples).
    pub fn describe(&self, tag_name: impl Fn(TagId) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "states: {}", self.num_states());
        let _ = writeln!(out, "top: {:?}  bottom: {:?}", self.top_states, self.bottom_states);
        for (q, trans) in self.transitions.iter().enumerate() {
            for t in trans {
                let guard = match &t.guard {
                    Guard::Finite(tags) => {
                        format!("{{{}}}", tags.iter().map(|&t| tag_name(t)).collect::<Vec<_>>().join(","))
                    }
                    Guard::CoFinite(tags) if tags.is_empty() => "L".to_string(),
                    Guard::CoFinite(tags) => {
                        format!("L∖{{{}}}", tags.iter().map(|&t| tag_name(t)).collect::<Vec<_>>().join(","))
                    }
                };
                let _ = writeln!(out, "q{q}, {guard} → {:?}", t.formula);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_set_operations() {
        let mut s = StateSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(63);
        assert_eq!(s.len(), 3);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        let t = StateSet(1 << 5);
        assert!(t.is_subset_of(s));
        assert!(!s.is_subset_of(t));
        assert_eq!(s.intersect(t), t);
        assert_eq!(t.union(StateSet(1 << 4)).len(), 2);
        let collected: Vec<StateId> = s.iter().collect();
        assert_eq!(collected, vec![0, 5, 63]);
        assert_eq!([s.rank(0), s.rank(5), s.rank(6), s.rank(63)], [0, 1, 2, 2]);
        assert_eq!(format!("{s:?}"), "{q0,q5,q63}");
    }

    #[test]
    fn guard_matching() {
        let g = Guard::Finite(vec![3, 7]);
        assert!(g.matches(3));
        assert!(!g.matches(4));
        let g = Guard::CoFinite(vec![2]);
        assert!(g.matches(0));
        assert!(!g.matches(2));
        assert_eq!(g.finite_tags(), None);
    }

    #[test]
    fn formula_constructors_simplify() {
        assert_eq!(Formula::and(Formula::True, Formula::Mark), Formula::Mark);
        assert_eq!(Formula::and(Formula::False, Formula::Mark), Formula::False);
        assert_eq!(Formula::or(Formula::False, Formula::Down1(1)), Formula::Down1(1));
        assert_eq!(Formula::or(Formula::True, Formula::Down1(1)), Formula::True);
        let f = Formula::and(Formula::Down1(1), Formula::or(Formula::Down2(2), Formula::Pred(0)));
        let mut d1 = StateSet::EMPTY;
        let mut d2 = StateSet::EMPTY;
        f.collect_down_states(&mut d1, &mut d2);
        assert!(d1.contains(1));
        assert!(d2.contains(2));
        assert!(!f.contains_mark());
    }
}
