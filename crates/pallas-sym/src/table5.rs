//! Rendering a path in the paper's Table 5 format.
//!
//! Table 5 shows the symbolic extraction of one execution path as five
//! sections — `Input` (the user-supplied semantic facts), `Signature`,
//! `Condition`, `State`, and `Output` — with `L#` line numbers and the
//! `S#/I#/V#/E#` symbol notation.

use crate::event::{Event, FunctionPaths, PathView};
use pallas_spec::FastPathSpec;

/// Renders one path of `func` as a Table 5-style listing. This is where
/// condition values are first rendered to `S#/I#/V#/E#` text.
///
/// `spec` supplies the `Input` section (`@immutable`, `@cond`,
/// `@order`); pass a default spec to omit user facts.
pub fn render_table5(func: &FunctionPaths, path: PathView<'_>, spec: &FastPathSpec) -> String {
    let mut out = String::new();
    let mut row = |section: &str, line: Option<u32>, text: &str| {
        match line {
            Some(l) => out.push_str(&format!("{section:<10} {l:>4}  {text}\n")),
            None => out.push_str(&format!("{section:<10}       {text}\n")),
        }
    };

    for imm in &spec.immutable {
        row("Input", None, &format!("@immutable = {imm}"));
    }
    for (i, c) in spec.conds.iter().enumerate() {
        row("Input", None, &format!("@cond{i} = {}", c.vars.join(", ")));
    }
    for (i, (a, b)) in spec.orders.iter().enumerate() {
        row("Input", None, &format!("@order{i} = @{a} < @{b}"));
    }

    row("Signature", Some(func.line), &func.signature);

    for e in path.conditions() {
        if let Event::Cond { line, symbolic, .. } = e {
            row("Condition", Some(*line), &symbolic.to_string());
        }
    }
    for e in path.events() {
        match e {
            Event::State { line, lvalue, value, .. } => {
                row("State", Some(*line), &format!("{lvalue} = {value}"));
            }
            Event::Call { line, callee, assigned_to: Some(to), .. } => {
                row("State", Some(*line), &format!("{to} = (E#{callee}(...))"));
            }
            _ => {}
        }
    }

    row(
        "Output",
        Some(path.output.line),
        if path.output.text.is_empty() { "(void)" } else { &path.output.text },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract, ExtractConfig};
    use pallas_lang::parse;

    #[test]
    fn table5_sections_present() {
        let src = "\
typedef unsigned int gfp_t;
int memalloc_noio_flags(gfp_t mask);
int __alloc_pages_slowpath(gfp_t mask);
int __alloc_pages_nodemask(gfp_t gfp_mask, int order) {
  int migratetype = 0;
  int alloc_flags = 0;
  if (order == 0) {
    gfp_mask = memalloc_noio_flags(gfp_mask);
    int page = __alloc_pages_slowpath(gfp_mask);
    return page;
  }
  return 0;
}
";
        let ast = parse(src).unwrap();
        let db = extract("mm", &ast, src, &ExtractConfig::default());
        let f = db.function("__alloc_pages_nodemask").unwrap();
        let spec = pallas_spec::FastPathSpec::new("mm")
            .with_immutable("gfp_mask")
            .with_cond("order0", &["order"]);
        let listing = render_table5(f, f.path(0), &spec);
        assert!(listing.contains("@immutable = gfp_mask"), "{listing}");
        assert!(listing.contains("Signature"), "{listing}");
        assert!(listing.contains("__alloc_pages_nodemask"), "{listing}");
        assert!(listing.contains("Condition"), "{listing}");
        assert!(listing.contains("State"), "{listing}");
        assert!(listing.contains("Output"), "{listing}");
        // The immutable overwrite appears as a State row on gfp_mask.
        assert!(listing.contains("gfp_mask = "), "{listing}");
    }

    #[test]
    fn bare_return_renders_void() {
        let src = "void f(void) { return; }";
        let ast = parse(src).unwrap();
        let db = extract("u", &ast, src, &ExtractConfig::default());
        let f = db.function("f").unwrap();
        let listing = render_table5(f, f.path(0), &pallas_spec::FastPathSpec::default());
        assert!(listing.contains("(void)"));
    }
}
