//! Node / edge typing and feature records for the query–item–ad graph.

/// Identifier of a node in the heterogeneous graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The three entity types of the interaction graph (Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeType {
    /// A search query posed by users.
    Query,
    /// An organic product.
    Item,
    /// A sponsored advertisement.
    Ad,
}

impl NodeType {
    /// All node types, in a stable order.
    pub const ALL: [NodeType; 3] = [NodeType::Query, NodeType::Item, NodeType::Ad];

    /// Stable small index for array-indexed per-type storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            NodeType::Query => 0,
            NodeType::Item => 1,
            NodeType::Ad => 2,
        }
    }

    /// Short name used in reports ("query" / "item" / "ad").
    pub fn name(self) -> &'static str {
        match self {
            NodeType::Query => "query",
            NodeType::Item => "item",
            NodeType::Ad => "ad",
        }
    }
}

/// The four edge relations of the interaction graph (Section IV-A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// A user searched a query and clicked the target node.
    Click,
    /// Two nodes clicked adjacently under the same query, or two queries
    /// sharing a clicked product.
    CoClick,
    /// Two queries whose term Jaccard similarity exceeds a threshold.
    Semantic,
    /// Two ads bidding on at least one common keyword.
    CoBid,
}

impl Relation {
    /// All relations, in a stable order.
    pub const ALL: [Relation; 4] = [
        Relation::Click,
        Relation::CoClick,
        Relation::Semantic,
        Relation::CoBid,
    ];

    /// Stable small index for array-indexed per-relation storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Relation::Click => 0,
            Relation::CoClick => 1,
            Relation::Semantic => 2,
            Relation::CoBid => 3,
        }
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Relation::Click => "click",
            Relation::CoClick => "co-click",
            Relation::Semantic => "semantic",
            Relation::CoBid => "co-bid",
        }
    }
}

/// Per-node features (Table IV of the paper).
///
/// All features are categorical IDs; the generator assigns them and the
/// model embeds each feature family in its own embedding table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFeatures {
    /// Leaf category in the platform category tree.
    pub category: u32,
    /// Term IDs of the query text / item title / ad title.
    pub terms: Vec<u32>,
    /// Brand ID (items and ads only).
    pub brand: Option<u32>,
    /// Shop ID (items and ads only).
    pub shop: Option<u32>,
    /// Bidding keyword IDs (ads only).
    pub bid_words: Vec<u32>,
}

impl NodeFeatures {
    /// Features of a query node.
    pub fn query(category: u32, terms: Vec<u32>) -> Self {
        NodeFeatures {
            category,
            terms,
            ..Default::default()
        }
    }

    /// Features of an item node.
    pub fn item(category: u32, terms: Vec<u32>, brand: u32, shop: u32) -> Self {
        NodeFeatures {
            category,
            terms,
            brand: Some(brand),
            shop: Some(shop),
            ..Default::default()
        }
    }

    /// Features of an ad node.
    pub fn ad(category: u32, terms: Vec<u32>, brand: u32, shop: u32, bid_words: Vec<u32>) -> Self {
        NodeFeatures {
            category,
            terms,
            brand: Some(brand),
            shop: Some(shop),
            bid_words,
        }
    }
}

/// One search session: a user posed `query` and clicked `clicks` in order.
///
/// This is the log record emitted by the behaviour-log generator and
/// consumed by the graph builder to create click / co-click edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRecord {
    /// Anonymous user identifier.
    pub user: u32,
    /// The query node searched in this session.
    pub query: NodeId,
    /// Clicked item / ad nodes, in click order.
    pub clicks: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        let t: Vec<usize> = NodeType::ALL.iter().map(|t| t.index()).collect();
        assert_eq!(t, vec![0, 1, 2]);
        let r: Vec<usize> = Relation::ALL.iter().map(|r| r.index()).collect();
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn feature_constructors_populate_expected_fields() {
        let q = NodeFeatures::query(3, vec![1, 2]);
        assert_eq!(q.category, 3);
        assert!(q.brand.is_none());
        let i = NodeFeatures::item(4, vec![5], 9, 8);
        assert_eq!(i.brand, Some(9));
        assert_eq!(i.shop, Some(8));
        assert!(i.bid_words.is_empty());
        let a = NodeFeatures::ad(4, vec![5], 9, 8, vec![7]);
        assert_eq!(a.bid_words, vec![7]);
    }

    #[test]
    fn names_are_human_readable() {
        assert_eq!(NodeType::Query.name(), "query");
        assert_eq!(Relation::CoBid.name(), "co-bid");
    }
}
