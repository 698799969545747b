//! Ultimate values computed by the reduction process.

use std::fmt;

use crate::ids::VertexId;

/// The *value* of a vertex: its unique ultimate value computed by the
/// reduction process (weak head normal form).
///
/// Scalars are carried directly. Structured data stays in the graph:
/// a [`Value::Cons`] names the head and tail *vertices*, so demanding a list
/// element is a further graph traversal (this is what makes `add-reference`
/// necessary — see `dgr-core`). A [`Value::Fn`] is a (possibly partial)
/// supercombinator application awaiting more arguments.
///
/// [`Value::Bottom`] is the explicit `⊥` produced by the optional
/// `is-bottom`-style deadlock recovery the paper's footnote 5 sketches.
///
/// # Example
///
/// ```
/// use dgr_graph::Value;
/// assert!(Value::Int(3).as_int().is_some());
/// assert!(Value::Bool(true).as_bool().unwrap());
/// assert!(Value::Bottom.is_bottom());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A machine integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// The empty list.
    Nil,
    /// A cons cell in weak head normal form; head and tail remain vertices.
    Cons(VertexId, VertexId),
    /// A (possibly partial) function value: supercombinator template plus
    /// the argument vertices captured so far.
    Fn(u32, Vec<VertexId>),
    /// The undefined value `⊥`, produced by deadlock recovery.
    Bottom,
}

impl Value {
    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the head and tail vertices, if this is a [`Value::Cons`].
    pub fn as_cons(&self) -> Option<(VertexId, VertexId)> {
        match self {
            Value::Cons(h, t) => Some((*h, *t)),
            _ => None,
        }
    }

    /// Returns `true` if this is the undefined value `⊥`.
    pub fn is_bottom(&self) -> bool {
        matches!(self, Value::Bottom)
    }

    /// Vertices this value keeps live (the components of structured data).
    pub fn referenced_vertices(&self) -> Vec<VertexId> {
        match self {
            Value::Cons(h, t) => vec![*h, *t],
            Value::Fn(_, caps) => caps.clone(),
            _ => Vec::new(),
        }
    }

    /// Visits the vertices [`Value::referenced_vertices`] returns, in the
    /// same order, without allocating.
    pub fn for_each_referenced(&self, mut f: impl FnMut(VertexId)) {
        match self {
            Value::Cons(h, t) => {
                f(*h);
                f(*t);
            }
            Value::Fn(_, caps) => {
                for &c in caps {
                    f(c);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Nil => write!(f, "nil"),
            Value::Cons(h, t) => write!(f, "cons({h}, {t})"),
            Value::Fn(tpl, caps) => write!(f, "fn#{tpl}/{}", caps.len()),
            Value::Bottom => write!(f, "⊥"),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(false).as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        let (h, t) = (VertexId::new(1), VertexId::new(2));
        assert_eq!(Value::Cons(h, t).as_cons(), Some((h, t)));
        assert!(Value::Bottom.is_bottom());
        assert!(!Value::Nil.is_bottom());
    }

    #[test]
    fn referenced_vertices_cover_structured_data() {
        let (h, t) = (VertexId::new(1), VertexId::new(2));
        assert_eq!(Value::Cons(h, t).referenced_vertices(), vec![h, t]);
        assert_eq!(Value::Fn(0, vec![h]).referenced_vertices(), vec![h]);
        assert!(Value::Int(0).referenced_vertices().is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            Value::Int(-3),
            Value::Bool(true),
            Value::Nil,
            Value::Cons(VertexId::new(0), VertexId::new(1)),
            Value::Fn(2, vec![]),
            Value::Bottom,
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
