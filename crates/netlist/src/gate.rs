//! Primitive gate kinds and their Boolean semantics.

use std::fmt;

/// The kind of a netlist node.
///
/// `Input` and `Dff` are *sources* for the combinational core: an `Input`
/// node is a primary input and a `Dff` node's output is a pseudo primary
/// input. A `Dff` node's single fanin is the pseudo primary output it
/// latches. All other kinds are combinational primitives.
///
/// # Example
///
/// ```
/// use gdf_netlist::GateKind;
///
/// assert_eq!(GateKind::And.controlling_value(), Some(false));
/// assert_eq!(GateKind::Nor.controlling_value(), Some(true));
/// assert_eq!(GateKind::Xor.controlling_value(), None);
/// assert!(GateKind::Nand.inverts());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// D flip-flop; fanin\[0\] is the D (pseudo primary output) net.
    Dff,
    /// Non-inverting buffer (1 fanin).
    Buf,
    /// Inverter (1 fanin).
    Not,
    /// N-ary AND.
    And,
    /// N-ary NAND.
    Nand,
    /// N-ary OR.
    Or,
    /// N-ary NOR.
    Nor,
    /// N-ary XOR (odd parity).
    Xor,
    /// N-ary XNOR (even parity).
    Xnor,
}

impl GateKind {
    /// All combinational gate kinds (everything except `Input` and `Dff`).
    pub const COMBINATIONAL: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Returns `true` if this kind is a combinational primitive.
    pub fn is_combinational(self) -> bool {
        !matches!(self, GateKind::Input | GateKind::Dff)
    }

    /// The *controlling value*: an input at this value forces the gate output
    /// regardless of the other inputs. `None` for parity gates and
    /// single-input gates.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The *non-controlling value* (complement of the controlling value).
    pub fn noncontrolling_value(self) -> Option<bool> {
        self.controlling_value().map(|v| !v)
    }

    /// Whether the gate inverts its "core" function (NAND/NOR/XNOR/NOT).
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// Whether the gate is a parity (XOR-family) gate.
    pub fn is_parity(self) -> bool {
        matches!(self, GateKind::Xor | GateKind::Xnor)
    }

    /// Evaluates the gate over plain Booleans.
    ///
    /// # Panics
    ///
    /// Panics if called on `Input` or `Dff`, or with an arity the gate does
    /// not support (e.g. `Not` with two inputs).
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        self.eval_bools(inputs.iter().copied())
    }

    /// [`GateKind::eval_bool`] over any sequence of Booleans, so callers
    /// that derive the inputs (one component of a multi-valued signal, say)
    /// need not collect them first.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GateKind::eval_bool`].
    pub fn eval_bools<I: IntoIterator<Item = bool>>(self, inputs: I) -> bool {
        let mut inputs = inputs.into_iter();
        let mut single = |name: &str| {
            let b = inputs.next();
            assert!(
                b.is_some() && inputs.next().is_none(),
                "{name} takes exactly one input"
            );
            b.unwrap_or_default()
        };
        match self {
            GateKind::Input | GateKind::Dff => {
                panic!("eval_bool called on non-combinational node kind {self:?}")
            }
            GateKind::Buf => single("BUF"),
            GateKind::Not => !single("NOT"),
            GateKind::And => inputs.all(|b| b),
            GateKind::Nand => !inputs.all(|b| b),
            GateKind::Or => inputs.any(|b| b),
            GateKind::Nor => !inputs.any(|b| b),
            GateKind::Xor => inputs.filter(|&b| b).count() % 2 == 1,
            GateKind::Xnor => inputs.filter(|&b| b).count() % 2 == 0,
        }
    }

    /// The canonical `.bench` keyword for this gate kind.
    ///
    /// `Input` has no keyword (it is written as an `INPUT(...)` declaration).
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Dff => "DFF",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }

    /// Parses a `.bench` gate keyword (case-insensitive). `BUFF` is accepted
    /// as an alias for `BUF`, as emitted by some ISCAS'89 distributions.
    pub fn from_bench_keyword(kw: &str) -> Option<GateKind> {
        match kw.to_ascii_uppercase().as_str() {
            "DFF" => Some(GateKind::Dff),
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "NOT" | "INV" => Some(GateKind::Not),
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            _ => None,
        }
    }

    /// Valid fanin range `(min, max)` for the gate kind; `max == usize::MAX`
    /// means unbounded.
    pub fn arity_range(self) -> (usize, usize) {
        match self {
            GateKind::Input => (0, 0),
            GateKind::Dff | GateKind::Buf | GateKind::Not => (1, 1),
            _ => (1, usize::MAX),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
        assert_eq!(GateKind::And.noncontrolling_value(), Some(true));
    }

    #[test]
    fn eval_bool_matches_truth_tables() {
        use GateKind::*;
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(And.eval_bool(&[a, b]), a && b);
                assert_eq!(Nand.eval_bool(&[a, b]), !(a && b));
                assert_eq!(Or.eval_bool(&[a, b]), a || b);
                assert_eq!(Nor.eval_bool(&[a, b]), !(a || b));
                assert_eq!(Xor.eval_bool(&[a, b]), a ^ b);
                assert_eq!(Xnor.eval_bool(&[a, b]), !(a ^ b));
            }
            assert_eq!(Not.eval_bool(&[a]), !a);
            assert_eq!(Buf.eval_bool(&[a]), a);
        }
    }

    #[test]
    fn three_input_parity() {
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, false]));
        assert!(!GateKind::Xnor.eval_bool(&[true, true, true]));
    }

    #[test]
    fn keyword_round_trip() {
        for kind in GateKind::COMBINATIONAL {
            assert_eq!(
                GateKind::from_bench_keyword(kind.bench_keyword()),
                Some(kind)
            );
        }
        assert_eq!(GateKind::from_bench_keyword("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_bench_keyword("dff"), Some(GateKind::Dff));
        assert_eq!(GateKind::from_bench_keyword("bogus"), None);
    }

    #[test]
    fn display_uses_bench_keyword() {
        assert_eq!(GateKind::Nand.to_string(), "NAND");
    }
}
