//! Torture test: one large kernel-style translation unit exercising
//! the full front-end feature matrix at once, end to end through CFG
//! construction and symbolic extraction.

use pallas_lang::{parse, Item};

const KERNEL_STYLE: &str = r#"
/* A miniature "subsystem" merging header-ish declarations and the
   implementation, the way the Pallas merge step produces units. */
#include <linux/kernel.h>
#include <linux/mm.h>

#define GFP_NOWAIT 0x00
#define GFP_KERNEL 0x14
#define MAX_ORDER 11

typedef unsigned int gfp_t;
typedef unsigned long pfn_t;

enum migrate_mode {
    MIGRATE_ASYNC,
    MIGRATE_SYNC_LIGHT,
    MIGRATE_SYNC = 4,
    MIGRATE_LAST,
};

struct list_head {
    struct list_head *next, *prev;
};

struct page {
    unsigned long flags;
    int refcount;
    int private;
    struct list_head lru;
};

struct zone {
    unsigned long free_pages;
    unsigned long watermark[3];
    struct page *pcp_list;
    int node;
};

struct alloc_context {
    struct zone *preferred_zone;
    gfp_t gfp_mask;
    int order;
    int migratetype;
};

/* prototypes */
extern int printk(const char *fmt, ...);
int zone_watermark_ok(struct zone *z, int order, unsigned long mark);
struct page *rmqueue_pcplist(struct zone *zone, int migratetype);
struct page *rmqueue_buddy(struct zone *zone, int order, int migratetype);
void wakeup_kswapd(struct zone *zone);

static int order_to_index(int order) {
    switch (order) {
        case 0:
            return 0;
        case 1:
        case 2:
            return 1;
        default:
            return 2;
    }
}

static unsigned long low_wmark(struct zone *z, int order) {
    return z->watermark[order_to_index(order)];
}

/* the fast path: order-0 allocations served from per-cpu lists */
struct page *rmqueue(struct zone *zone, int order, gfp_t gfp_mask, int migratetype) {
    struct page *page = 0;
    if (order == 0) {
        page = rmqueue_pcplist(zone, migratetype);
        if (page)
            goto out;
    }
    /* slow path: take the zone lock and hit the buddy lists */
    do {
        page = rmqueue_buddy(zone, order, migratetype);
        if (!page && order >= MAX_ORDER)
            return 0;
    } while (!page);

    if (!zone_watermark_ok(zone, order, low_wmark(zone, order)))
        wakeup_kswapd(zone);

out:
    if (page) {
        page->refcount++;
        page->private = migratetype;
    }
    return page;
}

/* a caller mixing ternaries, casts, comma reads and compound ops */
int alloc_batch(struct zone *zone, int n, gfp_t mask) {
    int allocated = 0;
    for (int i = 0; i < n; i++) {
        struct page *p = rmqueue(zone, 0, mask ? mask : (gfp_t)GFP_KERNEL, MIGRATE_ASYNC);
        if (!p)
            break;
        allocated += 1;
        zone->free_pages -= 1UL;
    }
    printk("allocated %d\n", allocated);
    return allocated;
}
"#;

#[test]
fn kernel_style_unit_parses() {
    let ast = parse(KERNEL_STYLE).unwrap_or_else(|e| panic!("{e}"));
    assert!(ast.function("rmqueue").is_some());
    assert!(ast.function("alloc_batch").is_some());
    assert!(ast.function("order_to_index").is_some());
    assert_eq!(ast.functions().count(), 4);
    assert!(ast.struct_def("page").is_some());
    assert!(ast.struct_def("alloc_context").is_some());
    assert_eq!(ast.enum_value("MIGRATE_SYNC"), Some(4));
    assert_eq!(ast.enum_value("MIGRATE_LAST"), Some(5));
    // Prototypes survive as items.
    let protos = ast
        .items
        .iter()
        .filter(|i| matches!(i, Item::Proto(_)))
        .count();
    assert!(protos >= 5, "{protos}");
}

#[test]
fn kernel_style_macros_substituted() {
    let ast = parse(KERNEL_STYLE).unwrap();
    // MAX_ORDER appears inside rmqueue as the literal 11; check by
    // extracting and looking for the condition.
    let db = pallas_sym::extract("k", &ast, KERNEL_STYLE, &pallas_sym::ExtractConfig::default());
    let f = db.function("rmqueue").unwrap();
    let any_literal_11 = f.paths().any(|r| {
        r.conditions().any(|e| match e {
            pallas_sym::Event::Cond { text, .. } => text.contains("11"),
            _ => false,
        })
    });
    assert!(any_literal_11, "#define MAX_ORDER expanded");
}

#[test]
fn kernel_style_cfg_structure() {
    let ast = parse(KERNEL_STYLE).unwrap();
    let f = ast.function("rmqueue").unwrap();
    let cfg = pallas_cfg::build_cfg(&ast, f);
    // One do-while loop.
    let (loops, nesting) = pallas_cfg::loop_stats(&cfg);
    assert_eq!(loops, 1);
    assert_eq!(nesting, 1);
    // The goto target block is labelled `out`.
    assert!(cfg.blocks.iter().any(|b| b.label.as_deref() == Some("out")));
    // Multiple exits: `return 0` inside the loop and the final return.
    assert!(cfg.exit_blocks().len() >= 2);

    let switch_fn = ast.function("order_to_index").unwrap();
    let switch_cfg = pallas_cfg::build_cfg(&ast, switch_fn);
    // case 1 and case 2 share a body via fallthrough.
    let ps = pallas_cfg::enumerate_paths(&switch_cfg, &pallas_cfg::PathConfig::default());
    assert_eq!(ps.paths.len(), 4, "case 0, case 1, case 2, default");
}

#[test]
fn kernel_style_symbolic_extraction() {
    let ast = parse(KERNEL_STYLE).unwrap();
    let db = pallas_sym::extract("k", &ast, KERNEL_STYLE, &pallas_sym::ExtractConfig::default());
    let f = db.function("rmqueue").unwrap();
    assert!(!f.records.is_empty());
    // Some path writes page->private.
    let writes_private = f.paths().any(|r| {
        r.states().any(|e| matches!(e, pallas_sym::Event::State { lvalue, .. } if lvalue == "page->private"))
    });
    assert!(writes_private);
    // The call graph connects alloc_batch → rmqueue → rmqueue_pcplist.
    let cg = pallas_sym::CallGraph::build(&db);
    assert_eq!(cg.call_depth("alloc_batch", "rmqueue"), Some(1));
    assert_eq!(cg.call_depth("alloc_batch", "rmqueue_pcplist"), Some(2));
}

#[test]
fn kernel_style_checks_with_spec() {
    // End-to-end through the whole toolkit: the unit carries one real
    // bug shape (rmqueue overwrites page->private which the spec pins).
    let report = pallas_core::Pallas::new()
        .check_source(
            "mm/kernel_style",
            KERNEL_STYLE,
            "fastpath rmqueue;\n\
             immutable page->private;\n\
             cond order0: order;\n\
             fault kswapd_failed;",
        )
        .expect("unit checks");
    use pallas_checkers::Rule;
    let rules: Vec<Rule> = report.warnings.iter().map(|w| w.rule).collect();
    assert!(rules.contains(&Rule::ImmutableOverwrite), "{:?}", report.warnings);
    assert!(rules.contains(&Rule::FaultMissing), "{:?}", report.warnings);
    // order *is* checked, so no 2.1 warning.
    assert!(!rules.contains(&Rule::CondMissing), "{:?}", report.warnings);
}
