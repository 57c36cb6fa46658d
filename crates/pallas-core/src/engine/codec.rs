//! Binary codec for persisted analysis artifacts.
//!
//! The persistent store ([`super::store_layer`]) holds two payload
//! shapes: a *function record* (one serialized [`FunctionPaths`]: its
//! event table once, then each path as a list of LEB128 event ids) and
//! a *unit record* (the function-record keys
//! that make up the unit's path database, in source order, plus the
//! unit's warnings). Everything is little-endian and length-prefixed;
//! enum variants are tagged by `u8` through exhaustive matches so a
//! variant added to [`Sym`], [`Event`], [`BinOp`], or [`UnOp`] is a
//! compile error here — the fix is a new tag plus a
//! [`super::store_layer::STORE_FORMAT_VERSION`] bump.
//!
//! Decoding is total: any malformed input yields [`DecodeError`], which
//! the store layer treats as a cache miss (recompute), never a panic.
//! The round trip is exact — a decoded value is `==` to the encoded
//! one — which is what makes persisted findings render byte-identically
//! to freshly computed ones.

use pallas_checkers::{parse_rule, Warning};
use pallas_lang::ast::{BinOp, UnOp};
use pallas_sym::{CondSym, Event, EventId, FunctionPaths, OutputRecord, PathRecord, Sym, SymNode};

/// A malformed or foreign payload. Carries the reason for tests and
/// trace messages; the store layer's only decision is "treat as miss".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

type R<T> = Result<T, DecodeError>;

fn bad<T>(what: &str) -> R<T> {
    Err(DecodeError(what.to_string()))
}

// ---------------------------------------------------------------- writer

#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// LEB128 (seven bits per byte, high bit = more follows): event
    /// ids are small and make up most of a function record.
    fn varu32(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn strs(&mut self, v: &[String]) {
        self.u32(v.len() as u32);
        for s in v {
            self.str(s);
        }
    }
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

// ---------------------------------------------------------------- reader

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return bad("short payload");
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> R<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn varu32(&mut self) -> R<u32> {
        let mut v = 0;
        for shift in [0, 7, 14, 21, 28] {
            let b = self.u8()?;
            let bits = u32::from(b & 0x7f);
            if bits.leading_zeros() < shift {
                break; // bits past the 32nd
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        bad("varint overflow")
    }
    fn u64(&mut self) -> R<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> R<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn boolean(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => bad("invalid bool"),
        }
    }
    fn str(&mut self) -> R<String> {
        let len = self.u32()? as usize;
        match std::str::from_utf8(self.take(len)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => bad("invalid utf-8"),
        }
    }
    fn strs(&mut self) -> R<Vec<String>> {
        let n = self.u32()? as usize;
        // Each string needs at least its 4-byte length prefix; this
        // bound rejects absurd counts before allocating.
        if self.buf.len() - self.at < n * 4 {
            return bad("implausible vec length");
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.str()?);
        }
        Ok(v)
    }
    /// True when every byte has been consumed — decoders require this
    /// so trailing garbage is corruption, not silently ignored.
    pub(crate) fn finished(&self) -> bool {
        self.at == self.buf.len()
    }
}

// ------------------------------------------------------------- operators

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Shl => 5,
        BinOp::Shr => 6,
        BinOp::Lt => 7,
        BinOp::Gt => 8,
        BinOp::Le => 9,
        BinOp::Ge => 10,
        BinOp::Eq => 11,
        BinOp::Ne => 12,
        BinOp::BitAnd => 13,
        BinOp::BitXor => 14,
        BinOp::BitOr => 15,
        BinOp::And => 16,
        BinOp::Or => 17,
    }
}

fn binop_from(tag: u8) -> R<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Shl,
        6 => BinOp::Shr,
        7 => BinOp::Lt,
        8 => BinOp::Gt,
        9 => BinOp::Le,
        10 => BinOp::Ge,
        11 => BinOp::Eq,
        12 => BinOp::Ne,
        13 => BinOp::BitAnd,
        14 => BinOp::BitXor,
        15 => BinOp::BitOr,
        16 => BinOp::And,
        17 => BinOp::Or,
        _ => return bad("unknown binop tag"),
    })
}

fn unop_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::BitNot => 2,
        UnOp::Deref => 3,
        UnOp::Addr => 4,
        UnOp::PreInc => 5,
        UnOp::PreDec => 6,
        UnOp::PostInc => 7,
        UnOp::PostDec => 8,
    }
}

fn unop_from(tag: u8) -> R<UnOp> {
    Ok(match tag {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::BitNot,
        3 => UnOp::Deref,
        4 => UnOp::Addr,
        5 => UnOp::PreInc,
        6 => UnOp::PreDec,
        7 => UnOp::PostInc,
        8 => UnOp::PostDec,
        _ => return bad("unknown unop tag"),
    })
}

// ------------------------------------------------------------------ sym

fn write_sym(w: &mut Writer, sym: Sym) {
    match sym.node() {
        SymNode::Input(name) => {
            w.u8(0);
            w.str(name);
        }
        SymNode::Int(v) => {
            w.u8(1);
            w.i64(*v);
        }
        SymNode::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        SymNode::Temp(n) => {
            w.u8(3);
            w.u32(*n);
        }
        SymNode::Call { callee, args } => {
            w.u8(4);
            w.str(callee);
            w.u32(args.len() as u32);
            for &a in args {
                write_sym(w, a);
            }
        }
        SymNode::Unary(op, a) => {
            w.u8(5);
            w.u8(unop_tag(*op));
            write_sym(w, *a);
        }
        SymNode::Binary(op, a, b) => {
            w.u8(6);
            w.u8(binop_tag(*op));
            write_sym(w, *a);
            write_sym(w, *b);
        }
        SymNode::Unknown => w.u8(7),
    }
}

// Decoding interns through the *raw* constructors: persisted trees were
// already folded/widened when they were built, so re-applying the
// budget here would change shapes (and hence rendered bytes) for
// values that legitimately sit at the budget boundary. Raw interning
// reproduces the encoded structure exactly, node for node.
fn read_sym(r: &mut Reader<'_>) -> R<Sym> {
    Ok(match r.u8()? {
        0 => Sym::input(r.str()?),
        1 => Sym::int(r.i64()?),
        2 => Sym::str_lit(r.str()?),
        3 => Sym::temp(r.u32()?),
        4 => {
            let callee = r.str()?;
            let n = r.u32()? as usize;
            let mut args = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                args.push(read_sym(r)?);
            }
            Sym::call(callee, args)
        }
        5 => {
            let op = unop_from(r.u8()?)?;
            Sym::unary_raw(op, read_sym(r)?)
        }
        6 => {
            let op = binop_from(r.u8()?)?;
            let a = read_sym(r)?;
            let b = read_sym(r)?;
            Sym::binary_raw(op, a, b)
        }
        7 => Sym::unknown(),
        _ => return bad("unknown sym tag"),
    })
}

fn write_opt_sym(w: &mut Writer, sym: Option<Sym>) {
    match sym {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            write_sym(w, s);
        }
    }
}

fn read_opt_sym(r: &mut Reader<'_>) -> R<Option<Sym>> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(read_sym(r)?),
        _ => return bad("invalid option tag"),
    })
}

// ---------------------------------------------------------------- events

fn write_event(w: &mut Writer, event: &Event) {
    match event {
        Event::Cond { line, text, symbolic, vars, taken, depth } => {
            w.u8(0);
            w.u32(*line);
            w.str(text);
            write_sym(w, symbolic.value);
            w.str(&symbolic.suffix);
            w.strs(vars);
            w.u8(match taken {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            w.u8(*depth);
        }
        Event::State { line, lvalue, value, text, reads, depth } => {
            w.u8(1);
            w.u32(*line);
            w.str(lvalue);
            write_sym(w, *value);
            w.str(text);
            w.strs(reads);
            w.u8(*depth);
        }
        Event::Call { line, callee, arg_vars, assigned_to, in_condition, depth } => {
            w.u8(2);
            w.u32(*line);
            w.str(callee);
            w.strs(arg_vars);
            match assigned_to {
                None => w.u8(0),
                Some(s) => {
                    w.u8(1);
                    w.str(s);
                }
            }
            w.boolean(*in_condition);
            w.u8(*depth);
        }
        Event::Decl { line, name, has_init, depth } => {
            w.u8(3);
            w.u32(*line);
            w.str(name);
            w.boolean(*has_init);
            w.u8(*depth);
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> R<Event> {
    Ok(match r.u8()? {
        0 => Event::Cond {
            line: r.u32()?,
            text: r.str()?,
            symbolic: CondSym { value: read_sym(r)?, suffix: r.str()? },
            vars: r.strs()?,
            taken: match r.u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                _ => return bad("invalid taken tag"),
            },
            depth: r.u8()?,
        },
        1 => Event::State {
            line: r.u32()?,
            lvalue: r.str()?,
            value: read_sym(r)?,
            text: r.str()?,
            reads: r.strs()?,
            depth: r.u8()?,
        },
        2 => Event::Call {
            line: r.u32()?,
            callee: r.str()?,
            arg_vars: r.strs()?,
            assigned_to: match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                _ => return bad("invalid option tag"),
            },
            in_condition: r.boolean()?,
            depth: r.u8()?,
        },
        3 => Event::Decl {
            line: r.u32()?,
            name: r.str()?,
            has_init: r.boolean()?,
            depth: r.u8()?,
        },
        _ => return bad("unknown event tag"),
    })
}

// ------------------------------------------------------- function paths

fn write_function_paths(w: &mut Writer, fp: &FunctionPaths) {
    w.str(&fp.name);
    w.str(&fp.signature);
    w.strs(&fp.params);
    w.u32(fp.line);
    w.u32(fp.events.len() as u32);
    for e in &fp.events {
        write_event(w, e);
    }
    w.u32(fp.records.len() as u32);
    for rec in &fp.records {
        w.u64(rec.index as u64);
        w.varu32(rec.events.len() as u32);
        for id in &rec.events {
            w.varu32(id.0);
        }
        w.u32(rec.output.line);
        w.str(&rec.output.text);
        write_opt_sym(w, rec.output.value);
        w.strs(&rec.output.vars);
    }
    w.boolean(fp.truncated);
    w.u64(fp.pruned as u64);
}

fn read_function_paths(r: &mut Reader<'_>) -> R<FunctionPaths> {
    let name = r.str()?;
    let signature = r.str()?;
    let params = r.strs()?;
    let line = r.u32()?;
    let n_events = r.u32()?;
    let mut events = Vec::with_capacity((n_events as usize).min(4096));
    for _ in 0..n_events {
        events.push(read_event(r)?);
    }
    let n_records = r.u32()? as usize;
    let mut records = Vec::with_capacity(n_records.min(4096));
    for _ in 0..n_records {
        let index = r.u64()? as usize;
        let n_ids = r.varu32()? as usize;
        let mut ids = Vec::with_capacity(n_ids.min(4096));
        for _ in 0..n_ids {
            let id = r.varu32()?;
            if id >= n_events {
                return bad("event id out of range");
            }
            ids.push(EventId(id));
        }
        let output = OutputRecord {
            line: r.u32()?,
            text: r.str()?,
            value: read_opt_sym(r)?,
            vars: r.strs()?,
        };
        records.push(PathRecord { index, events: ids, output });
    }
    let truncated = r.boolean()?;
    let pruned = r.u64()? as usize;
    Ok(FunctionPaths { name, signature, params, line, events, records, truncated, pruned })
}

/// Serializes one function's extracted paths (a *function record*
/// payload). Unit-independent: the unit name lives in [`PathDb`], not
/// here, so identical functions in different units share one record.
///
/// [`PathDb`]: pallas_sym::PathDb
pub(crate) fn encode_function_paths(fp: &FunctionPaths) -> Vec<u8> {
    let mut w = Writer::default();
    write_function_paths(&mut w, fp);
    w.into_bytes()
}

/// Decodes a function record. Errors mean "recompute", never panic.
pub(crate) fn decode_function_paths(bytes: &[u8]) -> R<FunctionPaths> {
    let mut r = Reader::new(bytes);
    let fp = read_function_paths(&mut r)?;
    if !r.finished() {
        return bad("trailing bytes");
    }
    Ok(fp)
}

// ------------------------------------------------------------- warnings

fn write_warning(w: &mut Writer, warning: &Warning) {
    w.str(warning.rule.number());
    w.str(&warning.unit);
    w.str(&warning.function);
    w.u32(warning.line);
    w.str(&warning.message);
}

fn read_warning(r: &mut Reader<'_>) -> R<Warning> {
    let number = r.str()?;
    let Some(rule) = parse_rule(&number) else {
        return bad("unknown rule number");
    };
    Ok(Warning {
        rule,
        unit: r.str()?,
        function: r.str()?,
        line: r.u32()?,
        message: r.str()?,
    })
}

// ---------------------------------------------------------- unit record

/// Serializes a *unit record* payload: the content keys of the
/// function records making up the unit's path database (source order)
/// plus the unit's finished warnings.
pub(crate) fn encode_unit_record(function_keys: &[u64], warnings: &[Warning]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(function_keys.len() as u32);
    for &k in function_keys {
        w.u64(k);
    }
    w.u32(warnings.len() as u32);
    for warning in warnings {
        write_warning(&mut w, warning);
    }
    w.into_bytes()
}

/// Decodes a unit record into `(function_keys, warnings)`.
pub(crate) fn decode_unit_record(bytes: &[u8]) -> R<(Vec<u64>, Vec<Warning>)> {
    let mut r = Reader::new(bytes);
    let n_keys = r.u32()? as usize;
    let mut keys = Vec::with_capacity(n_keys.min(65536));
    for _ in 0..n_keys {
        keys.push(r.u64()?);
    }
    let n_warnings = r.u32()? as usize;
    let mut warnings = Vec::with_capacity(n_warnings.min(65536));
    for _ in 0..n_warnings {
        warnings.push(read_warning(&mut r)?);
    }
    if !r.finished() {
        return bad("trailing bytes");
    }
    Ok((keys, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_checkers::Rule;

    fn sample_function_paths() -> FunctionPaths {
        FunctionPaths {
            name: "get_page_fast".into(),
            signature: "int get_page_fast(gfp_t gfp_mask, int order)".into(),
            params: vec!["gfp_mask".into(), "order".into()],
            line: 12,
            events: vec![
                Event::Decl { line: 13, name: "page".into(), has_init: false, depth: 0 },
                Event::Cond {
                    line: 14,
                    text: "order == 0".into(),
                    symbolic: CondSym {
                        value: Sym::binary_raw(BinOp::Eq, Sym::input("order"), Sym::int(0)),
                        suffix: String::new(),
                    },
                    vars: vec!["order".into()],
                    taken: Some(true),
                    depth: 0,
                },
                Event::State {
                    line: 15,
                    lvalue: "page".into(),
                    value: Sym::binary_raw(
                        BinOp::Add,
                        Sym::input("base"),
                        Sym::unary_raw(UnOp::Neg, Sym::int(-3)),
                    ),
                    text: "page = base + -(-3)".into(),
                    reads: vec!["base".into()],
                    depth: 0,
                },
                Event::Call {
                    line: 16,
                    callee: "prep_page".into(),
                    arg_vars: vec!["page".into()],
                    assigned_to: Some("rc".into()),
                    in_condition: false,
                    depth: 1,
                },
                Event::Cond {
                    line: 18,
                    text: "order == case 2".into(),
                    symbolic: CondSym { value: Sym::input("order"), suffix: " == case 2".into() },
                    vars: vec!["order".into()],
                    taken: None,
                    depth: 0,
                },
            ],
            records: vec![
                PathRecord {
                    index: 0,
                    events: vec![EventId(0), EventId(1), EventId(2), EventId(3), EventId(2)],
                    output: OutputRecord {
                        line: 17,
                        text: "page".into(),
                        value: Some(Sym::call(
                            "prep_page",
                            vec![Sym::temp(4), Sym::str_lit("tag"), Sym::unknown()],
                        )),
                        vars: vec!["page".into()],
                    },
                },
                PathRecord {
                    index: 1,
                    events: vec![EventId(4)],
                    output: OutputRecord {
                        line: 19,
                        text: String::new(),
                        value: None,
                        vars: vec![],
                    },
                },
            ],
            truncated: true,
            pruned: 7,
        }
    }

    #[test]
    fn function_paths_roundtrip_exactly() {
        let fp = sample_function_paths();
        let bytes = encode_function_paths(&fp);
        assert_eq!(decode_function_paths(&bytes).unwrap(), fp);
    }

    #[test]
    fn varints_roundtrip_and_reject_overflow() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX - 1, u32::MAX] {
            let mut w = Writer::default();
            w.varu32(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varu32().unwrap(), v);
            assert!(r.finished());
        }
        // Bits past the 32nd, and a sixth byte, are errors.
        assert!(Reader::new(&[0xff, 0xff, 0xff, 0xff, 0x1f]).varu32().is_err());
        assert!(Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]).varu32().is_err());
    }

    #[test]
    fn every_operator_roundtrips() {
        use BinOp::*;
        for op in [
            Add, Sub, Mul, Div, Rem, Shl, Shr, Lt, Gt, Le, Ge, Eq, Ne, BitAnd, BitXor,
            BitOr, And, Or,
        ] {
            let sym = Sym::binary_raw(op, Sym::input("a"), Sym::temp(1));
            let mut w = Writer::default();
            write_sym(&mut w, sym);
            let bytes = w.into_bytes();
            assert_eq!(read_sym(&mut Reader::new(&bytes)).unwrap(), sym);
        }
        for op in [
            UnOp::Neg,
            UnOp::Not,
            UnOp::BitNot,
            UnOp::Deref,
            UnOp::Addr,
            UnOp::PreInc,
            UnOp::PreDec,
            UnOp::PostInc,
            UnOp::PostDec,
        ] {
            let sym = Sym::unary_raw(op, Sym::int(i64::MIN));
            let mut w = Writer::default();
            write_sym(&mut w, sym);
            let bytes = w.into_bytes();
            assert_eq!(read_sym(&mut Reader::new(&bytes)).unwrap(), sym);
        }
    }

    #[test]
    fn unit_record_roundtrips() {
        let warnings = vec![
            Warning {
                rule: Rule::ImmutableOverwrite,
                unit: "mm/page_alloc".into(),
                function: "get_page_fast".into(),
                line: 42,
                message: "immutable `gfp_mask` overwritten".into(),
            },
            Warning {
                rule: Rule::FastPathExpensive,
                unit: "mm/page_alloc".into(),
                function: "slowish".into(),
                line: 7,
                message: "expensive call".into(),
            },
        ];
        let keys = vec![0xdead_beef, 0, u64::MAX];
        let bytes = encode_unit_record(&keys, &warnings);
        let (k, w) = decode_unit_record(&bytes).unwrap();
        assert_eq!(k, keys);
        assert_eq!(w, warnings);
    }

    #[test]
    fn malformed_payloads_error_instead_of_panicking() {
        let fp = sample_function_paths();
        let good = encode_function_paths(&fp);
        // Truncations at every prefix length must fail cleanly (or, for
        // the full length, succeed) — never panic.
        for cut in 0..good.len() {
            let _ = decode_function_paths(&good[..cut]);
        }
        // Unknown tags and trailing garbage are errors.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_function_paths(&trailing).is_err());
        assert!(decode_function_paths(&[0xFF; 16]).is_err());
        // An id past the end of the event table is an error, not a
        // later out-of-bounds panic in a path view.
        let mut dangling = fp.clone();
        dangling.records[1].events = vec![EventId(fp.events.len() as u32)];
        assert!(decode_function_paths(&encode_function_paths(&dangling)).is_err());
        // A warning with an unregistered rule number is an error.
        let mut w = Writer::default();
        w.u32(0); // no function keys
        w.u32(1); // one warning
        w.str("9.9");
        w.str("u");
        w.str("f");
        w.u32(1);
        w.str("m");
        assert!(decode_unit_record(&w.into_bytes()).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_decoders() {
        // Tiny deterministic LCG fuzz over both decoders.
        let mut state = 0x1234_5678_u64;
        for len in 0..200usize {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                bytes.push((state >> 33) as u8);
            }
            let _ = decode_function_paths(&bytes);
            let _ = decode_unit_record(&bytes);
        }
    }
}
