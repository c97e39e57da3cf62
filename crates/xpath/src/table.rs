//! The transition table of the top-down run (Section 5.5.2): the paper's
//! just-in-time compilation of transition selection, private to the
//! [evaluator](crate::eval).

use crate::automaton::{Automaton, Formula, StateId, StateSet};
use crate::eval::EvalOptions;
use sxsi_tree::{reserved, TagId, TagRelation, XmlTree};

/// Dense identifier of an interned configuration (a state set met by a
/// run).
pub(crate) type ConfigId = u32;

/// The empty configuration, interned first.
pub(crate) const EMPTY_CONFIG: ConfigId = 0;

/// How the forests evaluated under a configuration are traversed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Region {
    /// The exact sibling-chain traversal: jumping is disabled or unsound
    /// for the configuration.
    Walk,
    /// A single pure accumulator state: the whole region is one lazy tag
    /// range (Section 5.5.4).
    Lazy {
        /// The accumulator state.
        state: StateId,
        /// The tag it collects.
        tag: TagId,
    },
    /// Descendant-loop bottom states: only the top-most nodes carrying one
    /// of the relevant tags `first..end` of the table are visited
    /// (Section 5.4.1).
    Jump {
        /// First relevant tag, as an index for [`TransitionTable::relevant`].
        first: usize,
        /// One past the last.
        end: usize,
    },
}

/// An interned configuration with everything that depends on it alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Config {
    /// The configuration itself.
    pub(crate) states: StateSet,
    /// Its states accepting an empty forest.
    pub(crate) at_nil: StateSet,
    /// How its forests are traversed.
    pub(crate) region: Region,
}

/// The "compiled" behaviour of the automaton for one (configuration, label)
/// pair: the configurations to run on the first child / next sibling, and
/// the transitions to try — `first..end` for [`TransitionTable::transition`],
/// grouped by state, in evaluation order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeConfig {
    pub(crate) down1: ConfigId,
    pub(crate) down2: ConfigId,
    pub(crate) first: usize,
    pub(crate) end: usize,
}

/// The paper's just-in-time compilation of transition selection: every
/// distinct state set a run meets is interned to a dense id, and the
/// automaton's behaviour on a `(configuration, label)` pair is compiled the
/// first time the pair is met, into a flat table indexed
/// `configuration * num_tags + tag` — a visit costs one load, no hashing.
#[derive(Debug)]
pub(crate) struct TransitionTable<'a> {
    automaton: &'a Automaton,
    tree: &'a XmlTree,
    options: EvalOptions,
    num_tags: usize,
    configs: Vec<Config>,
    /// Relevant tags of the jumping configurations, each with whether it can
    /// occur below an `@` container.
    relevant: Vec<(TagId, bool)>,
    /// `slots[config * num_tags + tag]`: index into `node_configs` plus one,
    /// zero while the pair has not been met.  Dense on purpose: it grows by
    /// `num_tags` zeroed words per interned configuration, once per
    /// evaluator (so per query).  That assumes tag names number in the
    /// hundreds or thousands — as does the tree, whose four relative
    /// position tables hold `num_tags²` bits each.  At 10 000 names a
    /// one-result query pays about a microsecond for it (4.6 µs against the
    /// sparse memo's 4.0); `many_distinct_tags` in `eval.rs` covers 5 000.
    slots: Vec<u32>,
    node_configs: Vec<NodeConfig>,
    applicable: Vec<(StateId, &'a Formula)>,
}

impl<'a> TransitionTable<'a> {
    pub(crate) fn new(automaton: &'a Automaton, tree: &'a XmlTree, options: EvalOptions) -> Self {
        let mut table = Self {
            automaton,
            tree,
            options,
            num_tags: tree.num_tags(),
            configs: Vec::new(),
            relevant: Vec::new(),
            slots: Vec::new(),
            node_configs: Vec::new(),
            applicable: Vec::new(),
        };
        let empty = table.intern(StateSet::EMPTY);
        debug_assert_eq!(empty, EMPTY_CONFIG);
        table
    }

    /// The identifier of `states`, interning it — and deciding how its
    /// regions are traversed — the first time the run meets it.
    pub(crate) fn intern(&mut self, states: StateSet) -> ConfigId {
        if let Some(id) = self.configs.iter().position(|c| c.states == states) {
            return id as ConfigId;
        }
        let region = self.region_of(states);
        let at_nil = states.intersect(self.automaton.bottom_states);
        self.configs.push(Config { states, at_nil, region });
        if self.options.memoization {
            self.slots.resize(self.configs.len() * self.num_tags, 0);
        }
        (self.configs.len() - 1) as ConfigId
    }

    fn region_of(&mut self, states: StateSet) -> Region {
        let (automaton, tree) = (self.automaton, self.tree);
        if !self.options.jumping || !automaton.is_jumpable(states) {
            return Region::Walk;
        }
        let below_attributes =
            |tag| tree.tag_relation_possible(reserved::ATTRIBUTES, tag, TagRelation::Descendant);
        if self.options.lazy_regions {
            if let Some(tag) = automaton.accumulator_tag(states).filter(|&tag| !below_attributes(tag)) {
                let state = states.iter().next().expect("an accumulator configuration is a singleton");
                return Region::Lazy { state, tag };
            }
        }
        // The flat frontier iteration feeds each top-most relevant node an
        // "accepting but empty" sibling context; that is only sound when
        // every ↓₂ atom reachable from the configuration targets the
        // configuration itself (the usual descendant-recursion shape).  The
        // rare exception — a following-sibling next step — falls back to the
        // exact sibling-chain traversal.
        if !automaton.down2_closure(states).is_subset_of(states) {
            return Region::Walk;
        }
        let first = self.relevant.len();
        self.relevant.extend(automaton.relevant_tags(states).into_iter().map(|t| (t, below_attributes(t))));
        Region::Jump { first, end: self.relevant.len() }
    }

    #[inline]
    pub(crate) fn config(&self, id: ConfigId) -> &Config {
        &self.configs[id as usize]
    }

    #[inline]
    pub(crate) fn relevant(&self, i: usize) -> (TagId, bool) {
        self.relevant[i]
    }

    #[inline]
    pub(crate) fn compiled(&self, node_config: usize) -> NodeConfig {
        self.node_configs[node_config]
    }

    #[inline]
    pub(crate) fn transition(&self, i: usize) -> (StateId, &'a Formula) {
        self.applicable[i]
    }

    /// The compiled behaviour of `config` on a node labeled `tag`, as an
    /// index for [`TransitionTable::compiled`]: a table load, or — the first
    /// time the pair is met, and on every visit when memoization is off — a
    /// pass over the configuration's transitions.
    #[inline]
    pub(crate) fn node_config(&mut self, config: ConfigId, tag: TagId) -> usize {
        if !self.options.memoization {
            return self.compile(config, tag);
        }
        let slot = config as usize * self.num_tags + tag as usize;
        match self.slots[slot] {
            0 => {
                let compiled = self.compile(config, tag);
                self.slots[slot] = compiled as u32 + 1;
                compiled
            }
            found => found as usize - 1,
        }
    }

    fn compile(&mut self, config: ConfigId, tag: TagId) -> usize {
        let automaton = self.automaton;
        let first = self.applicable.len();
        let mut down1 = StateSet::EMPTY;
        let mut down2 = StateSet::EMPTY;
        for q in self.configs[config as usize].states.iter() {
            for t in automaton.transitions_of(q) {
                if t.guard.matches(tag) {
                    t.formula.collect_down_states(&mut down1, &mut down2);
                    self.applicable.push((q, &t.formula));
                }
            }
        }
        let compiled = NodeConfig {
            down1: self.intern(down1),
            down2: self.intern(down2),
            first,
            end: self.applicable.len(),
        };
        self.node_configs.push(compiled);
        self.node_configs.len() - 1
    }

    /// With memoization off nothing compiled survives the visit it served:
    /// callers take a mark before a visit and release it after.
    pub(crate) fn mark(&self) -> (usize, usize) {
        (self.node_configs.len(), self.applicable.len())
    }

    /// See [`TransitionTable::mark`].
    pub(crate) fn release(&mut self, (node_configs, applicable): (usize, usize)) {
        if !self.options.memoization {
            self.node_configs.truncate(node_configs);
            self.applicable.truncate(applicable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_compiles_once_or_per_visit() {
        use crate::{compile::compile, parser::parse_query};
        let doc = sxsi_xml::parse_document(b"<a><b><c/></b><b/></a>").unwrap();
        let automaton = compile(&parse_query("//b[c]").unwrap(), &doc.tree).unwrap();
        let b = doc.tree.tag_id("b").unwrap();

        let mut table = TransitionTable::new(&automaton, &doc.tree, EvalOptions::default());
        let config = table.intern(automaton.top_states);
        assert_eq!(table.intern(automaton.top_states), config, "interning is idempotent");
        assert_eq!(table.config(config).states, automaton.top_states);
        let first = table.node_config(config, b);
        let compiled = table.mark();
        assert_eq!(table.node_config(config, b), first, "the pair is compiled once");
        assert_eq!(table.mark(), compiled);
        table.release(compiled);
        assert_eq!(table.mark(), compiled, "a memoizing table keeps what it compiled");

        let unmemoized = EvalOptions { memoization: false, ..EvalOptions::default() };
        let mut table = TransitionTable::new(&automaton, &doc.tree, unmemoized);
        let config = table.intern(automaton.top_states);
        let before = table.mark();
        let first = table.node_config(config, reserved::ROOT);
        let second = table.node_config(config, reserved::ROOT);
        assert_ne!(first, second, "without memoization every visit compiles");
        let (a, b) = (table.compiled(first), table.compiled(second));
        assert_eq!((a.down1, a.down2, a.end - a.first), (b.down1, b.down2, b.end - b.first));
        table.release(before);
        assert_eq!(table.mark(), before, "and nothing compiled outlives the visit");
    }
}
