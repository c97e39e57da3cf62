//! A pointer-based DOM-like tree (the paper's Tables IV–VI comparison point).
//!
//! Every node stores its tag, first child, next sibling and parent as plain
//! machine-word indexes, allocated in pre-order — the most favourable layout
//! for pre-order traversal, as the paper notes.  The structure is built
//! directly from SAX events, exactly like the succinct tree, so construction
//! times are comparable.

use sxsi_xml::{Event, ParseError, Parser};

/// Index of a node in the pointer tree (pre-order allocation).
pub type DomNodeId = usize;

/// One pointer-tree node.
#[derive(Debug, Clone)]
pub struct PointerNode {
    /// Tag identifier (index into [`PointerTree::tag_names`]).
    pub tag: u32,
    /// First child, if any.
    pub first_child: Option<DomNodeId>,
    /// Next sibling, if any.
    pub next_sibling: Option<DomNodeId>,
    /// Parent (None for the root).
    pub parent: Option<DomNodeId>,
    /// Index of the node's text, for text leaves.
    pub text: Option<usize>,
}

/// Pointer-based tree with tag names and plain text storage.
#[derive(Debug, Default, Clone)]
pub struct PointerTree {
    /// Nodes in pre-order.
    pub nodes: Vec<PointerNode>,
    /// Distinct tag names.
    pub tag_names: Vec<String>,
    /// Text contents in document order.
    pub texts: Vec<String>,
}

impl PointerTree {
    /// Builds the pointer tree from raw XML.
    pub fn build_from_xml(xml: &[u8]) -> Result<Self, ParseError> {
        let mut tree = PointerTree::default();
        let mut tag_ids = std::collections::HashMap::new();
        let mut intern = |tree: &mut PointerTree, name: &str| -> u32 {
            if let Some(&id) = tag_ids.get(name) {
                return id;
            }
            let id = tree.tag_names.len() as u32;
            tree.tag_names.push(name.to_string());
            tag_ids.insert(name.to_string(), id);
            id
        };

        // Synthetic root.
        let root_tag = intern(&mut tree, "&");
        tree.nodes.push(PointerNode { tag: root_tag, first_child: None, next_sibling: None, parent: None, text: None });
        let mut stack: Vec<DomNodeId> = vec![0];
        let mut last_child: Vec<Option<DomNodeId>> = vec![None];

        let push_node = |tree: &mut PointerTree,
                             stack: &Vec<DomNodeId>,
                             last_child: &mut Vec<Option<DomNodeId>>,
                             tag: u32,
                             text: Option<usize>|
         -> DomNodeId {
            let parent = *stack.last().expect("root always present");
            let id = tree.nodes.len();
            tree.nodes.push(PointerNode { tag, first_child: None, next_sibling: None, parent: Some(parent), text });
            match last_child.last_mut().expect("aligned with stack") {
                Some(prev) => tree.nodes[*prev].next_sibling = Some(id),
                None => tree.nodes[parent].first_child = Some(id),
            }
            *last_child.last_mut().expect("aligned with stack") = Some(id);
            id
        };

        let mut parser = Parser::new(xml);
        loop {
            match parser.next_event()? {
                Event::StartElement { name, attributes, self_closing } => {
                    let tag = intern(&mut tree, &name);
                    let id = push_node(&mut tree, &stack, &mut last_child, tag, None);
                    // Keep the element's frame open while its attribute
                    // encoding is built, so later content children are linked
                    // after the `@` container rather than overwriting it.
                    stack.push(id);
                    last_child.push(None);
                    if !attributes.is_empty() {
                        let at_tag = intern(&mut tree, "@");
                        let at_id = push_node(&mut tree, &stack, &mut last_child, at_tag, None);
                        stack.push(at_id);
                        last_child.push(None);
                        for (attr_name, value) in &attributes {
                            let attr_tag = intern(&mut tree, attr_name);
                            let attr_id = push_node(&mut tree, &stack, &mut last_child, attr_tag, None);
                            let value_tag = intern(&mut tree, "%");
                            stack.push(attr_id);
                            last_child.push(None);
                            let text_idx = tree.texts.len();
                            tree.texts.push(value.clone());
                            push_node(&mut tree, &stack, &mut last_child, value_tag, Some(text_idx));
                            stack.pop();
                            last_child.pop();
                        }
                        stack.pop();
                        last_child.pop();
                    }
                    if self_closing {
                        stack.pop();
                        last_child.pop();
                    }
                }
                Event::EndElement { .. } => {
                    stack.pop();
                    last_child.pop();
                }
                Event::Text(text) => {
                    if stack.len() > 1 && !text.trim().is_empty() {
                        let tag = intern(&mut tree, "#");
                        let text_idx = tree.texts.len();
                        tree.texts.push(text);
                        push_node(&mut tree, &stack, &mut last_child, tag, Some(text_idx));
                    }
                }
                Event::Eof => break,
            }
        }
        Ok(tree)
    }

    /// Number of nodes (including the synthetic root and model nodes).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes retained (the "5–10× blow-up" the paper mentions comes
    /// from exactly this kind of representation).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PointerNode>()
            + self.texts.iter().map(|t| t.len()).sum::<usize>()
            + self.tag_names.iter().map(|t| t.len()).sum::<usize>()
    }

    /// Full recursive pre-order traversal counting every node (Table V).
    pub fn count_traversal(&self) -> usize {
        fn rec(tree: &PointerTree, node: DomNodeId) -> usize {
            let mut count = 1;
            let mut child = tree.nodes[node].first_child;
            while let Some(c) = child {
                count += rec(tree, c);
                child = tree.nodes[c].next_sibling;
            }
            count
        }
        rec(self, 0)
    }

    /// Counts the nodes carrying a given tag by full traversal (Table VI's
    /// hand-written traversal baseline).
    pub fn count_tag(&self, tag_name: &str) -> usize {
        let Some(tag) = self.tag_names.iter().position(|t| t == tag_name) else { return 0 };
        let tag = tag as u32;
        self.nodes.iter().filter(|n| n.tag == tag).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_same_shape_as_the_succinct_tree() {
        let xml = r#"<parts><part name="pen"><color>blue</color><stock>40</stock>Soon</part><part name="rubber"><stock>30</stock></part></parts>"#;
        let dom = PointerTree::build_from_xml(xml.as_bytes()).unwrap();
        let doc = sxsi_xml::parse_document(xml.as_bytes()).unwrap();
        assert_eq!(dom.num_nodes(), doc.tree.num_nodes());
        assert_eq!(dom.count_traversal(), doc.tree.num_nodes());
        assert_eq!(dom.texts.len(), doc.tree.num_texts());
        assert_eq!(dom.count_tag("part"), 2);
        assert_eq!(dom.count_tag("stock"), 2);
        assert_eq!(dom.count_tag("missing"), 0);
    }

    #[test]
    fn parent_and_sibling_links_are_consistent() {
        let xml = "<a><b/><c><d/></c></a>";
        let dom = PointerTree::build_from_xml(xml.as_bytes()).unwrap();
        for (i, node) in dom.nodes.iter().enumerate() {
            if let Some(c) = node.first_child {
                assert_eq!(dom.nodes[c].parent, Some(i));
            }
            if let Some(s) = node.next_sibling {
                assert_eq!(dom.nodes[s].parent, node.parent);
            }
        }
    }
}
