//! Hand-written faithful miniatures of the fast paths the paper
//! studies. Each unit reproduces the code *shape* that triggers the
//! paper's example bug (Figures 1 and 3–9, plus the Table 5 symbolic
//! extraction), at miniature scale.

use crate::types::{Component, CorpusUnit};
use pallas_checkers::Rule;
use pallas_core::{KnownBug, SourceUnit};

fn unit(
    component: Component,
    name: &str,
    source: &str,
    spec: &str,
    bugs: Vec<KnownBug>,
    description: &str,
) -> CorpusUnit {
    CorpusUnit {
        component,
        unit: SourceUnit::new(name)
            .with_file(format!("{}.c", name.replace('/', "_")), source)
            .with_spec(spec),
        bugs,
        expected_false_positives: 0,
        description: description.to_string(),
    }
}

/// Figure 1(a) + §2.1 + Table 5: page allocation in the virtual memory
/// manager. The buddy allocator serves order-0 requests from per-cpu
/// lists without a lock; the immutable `gfp_mask` is overwritten on
/// the way (the §2.1 bug, shown symbolically in Table 5).
pub fn page_alloc() -> CorpusUnit {
    let src = "\
typedef unsigned int gfp_t;
#define GFP_KSWAPD_RECLAIM 0x20
struct page { int private; int frozen; };
struct zone { int free; int node; };
int zone_local(struct zone *local_zone, struct zone *zone);
int memalloc_noio_flags(gfp_t mask);
int get_page_from_per_cpu(int migratetype);
int lock_zone(struct zone *z);
int get_page_from_fallback(struct zone *z, int order);
int __alloc_pages_slowpath(gfp_t mask, int order) {
  if (mask & 0x10)
    return get_page_from_fallback(0, order);
  return 0;
}
int __alloc_pages_nodemask(gfp_t gfp_mask, int order, struct zone *zone) {
  int migratetype = 0;
  int alloc_flags = 0;
  alloc_flags = alloc_flags | 1;
  if (order == 0) {
    int page = get_page_from_per_cpu(migratetype);
    return page;
  }
  if (gfp_mask & GFP_KSWAPD_RECLAIM) {
    gfp_mask = memalloc_noio_flags(gfp_mask);
    int page = __alloc_pages_slowpath(gfp_mask, order);
    return page;
  }
  lock_zone(zone);
  return get_page_from_fallback(zone, order);
}
";
    let spec = "\
unit mm/page_alloc_example;
fastpath __alloc_pages_nodemask;
slowpath __alloc_pages_slowpath;
immutable gfp_mask;
cond order0: order;
";
    unit(
        Component::Mm,
        "mm/page_alloc_example",
        src,
        spec,
        vec![KnownBug::new(
            "mm/page_alloc_example#1.2",
            Rule::ImmutableOverwrite,
            "__alloc_pages_nodemask",
            "immutable gfp_mask overwritten before entering the slow path",
            "Wrong result",
        )
        .with_latent_years(0.8)],
        "Figure 1(a)/Table 5: order-0 page allocation fast path",
    )
}

/// Figure 1(b): UBIFS file write. The fast path skips budgeting when
/// flash has space; on the exception path the page state it returns is
/// outside the defined set, losing the write (§2.2's data-loss bug).
pub fn ubifs_write() -> CorpusUnit {
    let src = "\
enum page_state { PG_CLEAN = 0, PG_DIRTY = 1 };
int allocate_space(int bytes);
int write_dirty_page_back(int page);
int acquire_space(int bytes);
int release_unused_space(int bytes);
int ubifs_write_slow(int page, int bytes) {
  int err = allocate_space(bytes);
  if (err)
    write_dirty_page_back(page);
  acquire_space(bytes);
  release_unused_space(bytes);
  return PG_DIRTY;
}
int ubifs_write_fast(int page, int bytes, int free_space) {
  if (free_space > bytes) {
    acquire_space(bytes);
    return PG_DIRTY;
  }
  return 2;
}
";
    let spec = "\
unit fs/ubifs_write_example;
fastpath ubifs_write_fast;
slowpath ubifs_write_slow;
cond space: free_space;
returns PG_CLEAN, PG_DIRTY;
";
    unit(
        Component::Fs,
        "fs/ubifs_write_example",
        src,
        spec,
        vec![KnownBug::new(
            "fs/ubifs_write_example#3.1",
            Rule::OutputDefined,
            "ubifs_write_fast",
            "exception path returns a page state outside the defined set",
            "Data loss",
        )
        .with_latent_years(2.4)],
        "Figure 1(b): UBIFS write fast path skipping the budgeting step",
    )
}

/// Figure 1(c) + Figure 7: TCP receive. The header-prediction fast
/// path returns 1 where the slow path returns 0, double-freeing the
/// socket buffer in the caller (§2.3, \[43\]).
pub fn tcp_rcv() -> CorpusUnit {
    let src = "\
struct sock { int pred_flags; int seq; };
int validate_segment(struct sock *sk, int seg);
int handle_incoming(struct sock *sk, int seg);
int send_ack(struct sock *sk);
int process_out_of_order(struct sock *sk, int seg);
int tcp_rcv_slow(struct sock *sk, int seg) {
  if (validate_segment(sk, seg)) {
    process_out_of_order(sk, seg);
    return 0;
  }
  handle_incoming(sk, seg);
  send_ack(sk);
  return 0;
}
int tcp_rcv_established(struct sock *sk, int seg, int pred) {
  if (sk->pred_flags == pred) {
    handle_incoming(sk, seg);
    send_ack(sk);
    return 1;
  }
  return tcp_rcv_slow(sk, seg);
}
int tcp_v4_do_rcv(struct sock *sk, int seg, int pred) {
  int ret = tcp_rcv_established(sk, seg, pred);
  if (ret)
    return -1;
  return 0;
}
";
    let spec = "\
unit net/tcp_rcv_example;
fastpath tcp_rcv_established;
slowpath tcp_rcv_slow;
cond pred: pred_flags;
match_slow_return;
";
    unit(
        Component::Net,
        "net/tcp_rcv_example",
        src,
        spec,
        vec![KnownBug::new(
            "net/tcp_rcv_example#3.2",
            Rule::OutputMatchSlow,
            "tcp_rcv_established",
            "fast path returns 1 where the slow path returns 0; caller double-frees skb",
            "System crash",
        )
        .with_latent_years(1.5)],
        "Figure 1(c)/Figure 7: TCP header-prediction fast path with mismatched output",
    )
}

/// Figure 3: freeing mlocked pages overwrites `page->private`, which
/// the fast path had linked to the immutable `migratetype`.
pub fn free_pages_mlocked() -> CorpusUnit {
    let src = "\
struct page { int private; int mlocked; };
int free_to_buddy(struct page *page);
int set_pageblock_migratetype(struct page *page, int migratetype);
int free_pages_fast(struct page *page) {
  if (page->mlocked) {
    page->private = 0;
    free_to_buddy(page);
    return 0;
  }
  free_to_buddy(page);
  return 0;
}
";
    let spec = "\
unit mm/free_pages_example;
fastpath free_pages_fast;
immutable page->private;
";
    unit(
        Component::Mm,
        "mm/free_pages_example",
        src,
        spec,
        vec![KnownBug::new(
            "mm/free_pages_example#1.2",
            Rule::ImmutableOverwrite,
            "free_pages_fast",
            "migratetype stored in page->private is overwritten when freeing",
            "Wrong result",
        )
        .with_latent_years(1.2)],
        "Figure 3: overwritten migratetype in the mlocked-free fast path",
    )
}

/// Figure 4: the OCFS2 direct-IO fast path never checks whether the
/// file size changed, skipping the metadata-updating slow path.
pub fn ocfs2_dio() -> CorpusUnit {
    let src = "\
struct inode { int size; };
int write_blocks(struct inode *in, int blocks);
int update_inode_size(struct inode *in, int size);
int ocfs2_dio_write_slow(struct inode *in, int blocks, int new_size) {
  write_blocks(in, blocks);
  update_inode_size(in, new_size);
  return 0;
}
int ocfs2_get_block_fast(struct inode *in, int blocks, int size_changed) {
  write_blocks(in, blocks);
  return 0;
}
";
    let spec = "\
unit fs/ocfs2_dio_example;
fastpath ocfs2_get_block_fast;
slowpath ocfs2_dio_write_slow;
cond resized: size_changed;
";
    unit(
        Component::Fs,
        "fs/ocfs2_dio_example",
        src,
        spec,
        vec![KnownBug::new(
            "fs/ocfs2_dio_example#2.1",
            Rule::CondMissing,
            "ocfs2_get_block_fast",
            "missing size-changed check skips the metadata slow path",
            "Data loss",
        )
        .with_latent_years(0.6)],
        "Figure 4: OCFS2 missing trigger condition for path switch",
    )
}

/// Figure 5: Receive Packet Steering. The buggy fast path checks only
/// `map->len == 1`, omitting the `rps_flow_table` conjunct the patch
/// adds; the fixed function is included for the diff demo.
pub fn rps_map() -> CorpusUnit {
    let src = "\
struct rps_map { int len; int cpus[8]; };
struct rps_dev_flow_table { int mask; };
struct netdev_rx_queue {
  struct rps_map *rps_map;
  struct rps_dev_flow_table *rps_flow_table;
};
int cpu_online(int cpu);
int get_rps_cpu_fast(struct netdev_rx_queue *rxqueue) {
  struct rps_map *map = rxqueue->rps_map;
  int cpu = -1;
  if (map->len == 1) {
    int tcpu = map->cpus[0];
    if (cpu_online(tcpu))
      cpu = tcpu;
  }
  return cpu;
}
int get_rps_cpu_fixed(struct netdev_rx_queue *rxqueue) {
  struct rps_map *map = rxqueue->rps_map;
  int cpu = -1;
  if (map->len == 1 && !rxqueue->rps_flow_table) {
    int tcpu = map->cpus[0];
    if (cpu_online(tcpu))
      cpu = tcpu;
  }
  return cpu;
}
";
    let spec = "\
unit net/rps_map_example;
fastpath get_rps_cpu_fast;
cond rps_ready: len, rps_flow_table;
";
    unit(
        Component::Net,
        "net/rps_map_example",
        src,
        spec,
        vec![KnownBug::new(
            "net/rps_map_example#2.2",
            Rule::CondIncomplete,
            "get_rps_cpu_fast",
            "rps_flow_table readiness is not part of the trigger condition",
            "Regression",
        )
        .with_latent_years(1.0)],
        "Figure 5: incomplete RPS trigger condition (patched variant included)",
    )
}

/// Figure 6: the allocator tries the OOM killer before spilling to
/// remote zones, reversing the specified order of condition checks.
pub fn alloc_order() -> CorpusUnit {
    let src = "\
int alloc_from_local(void);
int alloc_from_remote(void);
int alloc_using_oom(void);
int alloc_pages_order_fast(int local_ok, int oom_needed, int remote_ok) {
  if (local_ok)
    return alloc_from_local();
  if (oom_needed)
    return alloc_using_oom();
  if (remote_ok)
    return alloc_from_remote();
  return 0;
}
";
    let spec = "\
unit mm/alloc_order_example;
fastpath alloc_pages_order_fast;
cond remote: remote_ok;
cond oom: oom_needed;
order remote before oom;
";
    unit(
        Component::Mm,
        "mm/alloc_order_example",
        src,
        spec,
        vec![KnownBug::new(
            "mm/alloc_order_example#2.3",
            Rule::CondOrder,
            "alloc_pages_order_fast",
            "OOM reclaim is tried before spilling to remote zones",
            "Regression",
        )
        .with_latent_years(0.9)],
        "Figure 6: reversed order of trigger-condition checks",
    )
}

/// Figure 8: the SCSI target teardown fast path never consults the
/// command's `state_active` fault flag, leaking the failed command;
/// the patched variant is included for the diff demo.
pub fn scsi_free_cmd() -> CorpusUnit {
    let src = "\
struct se_cmd { int state_active; };
int transport_wait_for_tasks(struct se_cmd *cmd);
int target_remove_from_state_list(struct se_cmd *cmd);
int spin_lock_irqsave(void);
int spin_unlock_irqrestore(void);
int transport_generic_free_cmd(struct se_cmd *cmd, int wait_for_tasks) {
  if (wait_for_tasks)
    transport_wait_for_tasks(cmd);
  return 0;
}
int transport_generic_free_cmd_fixed(struct se_cmd *cmd, int wait_for_tasks) {
  if (wait_for_tasks)
    transport_wait_for_tasks(cmd);
  if (cmd->state_active) {
    spin_lock_irqsave();
    target_remove_from_state_list(cmd);
    spin_unlock_irqrestore();
  }
  return 0;
}
";
    let spec = "\
unit dev/scsi_free_cmd_example;
fastpath transport_generic_free_cmd;
fault state_active;
";
    unit(
        Component::Dev,
        "dev/scsi_free_cmd_example",
        src,
        spec,
        vec![KnownBug::new(
            "dev/scsi_free_cmd_example#4.1",
            Rule::FaultMissing,
            "transport_generic_free_cmd",
            "failed command state never handled; cmd object leaks",
            "Memory leak",
        )
        .with_latent_years(2.0)],
        "Figure 8: missing fault handler in SCSI command teardown (patched variant included)",
    )
}

/// Figure 9: the NFS lookup fast path deletes an inode without
/// removing its entry from the inode cache, leaving a bogus file
/// handle visible to NFS daemons.
pub fn nfs_icache() -> CorpusUnit {
    let src = "\
struct inode { int ino; int valid; };
int icache_lookup(int ino);
int read_inode_from_disk(int ino);
int nfs_unlink_fast(struct inode *inode) {
  inode->valid = 0;
  return 0;
}
int nfs_lookup_fast(int ino) {
  int cached = icache_lookup(ino);
  if (cached)
    return cached;
  return read_inode_from_disk(ino);
}
";
    let spec = "\
unit fs/nfs_icache_example;
fastpath nfs_unlink_fast;
cache icache for inode->valid;
";
    unit(
        Component::Fs,
        "fs/nfs_icache_example",
        src,
        spec,
        vec![KnownBug::new(
            "fs/nfs_icache_example#5.2",
            Rule::AssistStale,
            "nfs_unlink_fast",
            "obsolete inode left in icache after deletion",
            "Inconsistency",
        )
        .with_latent_years(3.0)],
        "Figure 9: stale inode-cache entry after unlink",
    )
}

/// All hand-written example units, in figure order.
pub fn examples() -> Vec<CorpusUnit> {
    vec![
        page_alloc(),
        ubifs_write(),
        tcp_rcv(),
        free_pages_mlocked(),
        ocfs2_dio(),
        rps_map(),
        alloc_order(),
        scsi_free_cmd(),
        nfs_icache(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pallas_core::{score, Pallas};

    /// Every example unit parses, checks, and its warnings exactly
    /// validate its ground truth — the figures' bugs are all found and
    /// nothing else is reported.
    #[test]
    fn examples_check_exactly_to_ground_truth() {
        for cu in examples() {
            let analyzed = Pallas::new()
                .check_unit(&cu.unit)
                .unwrap_or_else(|e| panic!("{}: {e}", cu.name()));
            let s = score(&analyzed.warnings, &cu.bugs);
            assert_eq!(
                s.bug_count(),
                cu.bugs.len(),
                "{}: missed {:?}, warnings {:#?}",
                cu.name(),
                s.missed,
                analyzed.warnings
            );
            assert_eq!(
                s.false_positives.len(),
                cu.expected_false_positives,
                "{}: unexpected {:#?}",
                cu.name(),
                s.false_positives
            );
        }
    }

    #[test]
    fn nine_examples_cover_the_figures() {
        let ex = examples();
        assert_eq!(ex.len(), 9);
        let names: Vec<&str> = ex.iter().map(|u| u.name()).collect();
        assert!(names.contains(&"mm/page_alloc_example"));
        assert!(names.contains(&"net/rps_map_example"));
        assert!(names.contains(&"dev/scsi_free_cmd_example"));
    }

    /// The patched variants (Figures 5 and 8) are clean: re-pointing
    /// the spec at the fixed function produces no warnings.
    #[test]
    fn patched_variants_are_clean() {
        for (cu, fixed_fn, spec) in [
            (
                rps_map(),
                "get_rps_cpu_fixed",
                "fastpath get_rps_cpu_fixed; cond rps_ready: len, rps_flow_table;",
            ),
            (
                scsi_free_cmd(),
                "transport_generic_free_cmd_fixed",
                "fastpath transport_generic_free_cmd_fixed; fault state_active;",
            ),
        ] {
            let mut unit = cu.unit.clone();
            unit.spec_text = spec.to_string();
            let analyzed = Pallas::new().check_unit(&unit).unwrap();
            assert!(
                analyzed.warnings.is_empty(),
                "{fixed_fn}: {:#?}",
                analyzed.warnings
            );
        }
    }

    /// The Table 5 unit extracts the gfp_mask overwrite symbolically.
    #[test]
    fn table5_symbolic_listing_from_page_alloc() {
        let cu = page_alloc();
        let analyzed = Pallas::new().check_unit(&cu.unit).unwrap();
        let f = analyzed.db.function("__alloc_pages_nodemask").unwrap();
        // Find a path through the slow branch (gfp_mask reassigned).
        let rec = f
            .paths()
            .find(|r| {
                r.states().any(|e| matches!(e, pallas_sym::Event::State { lvalue, .. } if lvalue == "gfp_mask"))
            })
            .expect("slow-branch path exists");
        let listing = pallas_sym::render_table5(f, rec, &analyzed.spec);
        assert!(listing.contains("@immutable = gfp_mask"), "{listing}");
        assert!(listing.contains("gfp_mask = "), "{listing}");
        assert!(listing.contains("Signature"), "{listing}");
    }
}
