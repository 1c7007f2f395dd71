(* The offline verify-and-repair pipeline: hand-crafted device damage
   (torn headers, wild references, broken page geometry) must fail
   verification, and one Fsck.repair must restore every structural
   invariant — idempotently, preserving what the durable roots anchor.
   Ends with the full soak matrix: every crash point x every fault
   schedule x both backends, zero post-fsck failures. *)

open Cxlshm
module Soak = Cxlshm_check.Soak
module Mem = Cxlshm_shmem.Mem

let mem_lay arena = (Shm.mem arena, Shm.layout arena)

let check_clean arena = Validate.is_clean (Validate.run (Shm.mem arena) (Shm.layout arena))

let repair arena = Shm.fsck arena

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A published object survives fsck (the durable root anchors it); the
   publishing client's slot does not — fsck treats every recorded client
   as dead, which offline they are. *)
let test_clean_arena_nothing_to_fix () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena () in
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_word keep 0 4242;
  Named_roots.publish a ~name:"keep" keep;
  Cxl_ref.drop keep;
  let scratch = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.drop scratch;
  Alcotest.(check bool) "pre-check clean" true (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repair verdict clean" true (Fsck.clean r);
  Alcotest.(check int) "client swept" 1 r.Fsck.clients_swept;
  Alcotest.(check int) "nothing quarantined" 0 r.Fsck.pages_quarantined;
  Alcotest.(check int) "no torn headers" 0 r.Fsck.torn_headers_cleared;
  Alcotest.(check int) "no wild refs" 0 r.Fsck.wild_refs_cleared;
  Alcotest.(check int) "nothing freed" 0 r.Fsck.unreachable_freed;
  let b = Shm.join arena () in
  match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "published object lost by a no-op repair"
  | Some k ->
      Alcotest.(check int) "payload intact" 4242 (Cxl_ref.read_word k 0);
      Cxl_ref.drop k

let test_torn_header_repaired () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, _lay = mem_lay arena in
  let a = Shm.join arena () in
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_word keep 0 777;
  Named_roots.publish a ~name:"keep" keep;
  let obj = Cxl_ref.obj keep in
  Cxl_ref.drop keep;
  Shm.leave a;
  (* a stuck word left a stale header: refcount 9, a dead client's mark *)
  Mem.unsafe_poke mem
    (Obj_header.header_of_obj obj)
    (Obj_header.make ~lcid:3 ~lera:77 ~ref_cnt:9);
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "a count was rewritten" true (r.Fsck.counts_fixed >= 1);
  let b = Shm.join arena () in
  (match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "anchored object lost"
  | Some k ->
      Alcotest.(check int) "payload intact" 777 (Cxl_ref.read_word k 0);
      Cxl_ref.drop k);
  Alcotest.(check bool) "still clean" true (check_clean arena)

let test_wild_ref_cleared_unreachable_freed () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let a = Shm.join arena () in
  let parent = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.set_emb parent 0 child;
  Cxl_ref.drop child;
  Named_roots.publish a ~name:"parent" parent;
  let pobj = Cxl_ref.obj parent in
  Cxl_ref.drop parent;
  Shm.leave a;
  (* the embedded reference word goes wild: it now points into an
     uninitialised page area. The child keeps its count but lost its only
     holder. *)
  Mem.unsafe_poke mem
    (Obj_header.emb_slot pobj 0)
    (Layout.segment_base lay (Config.small.Config.num_segments - 1) + 5);
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "wild ref cleared" true (r.Fsck.wild_refs_cleared >= 1);
  Alcotest.(check bool) "orphaned child freed" true (r.Fsck.unreachable_freed >= 1);
  let b = Shm.join arena () in
  (match Named_roots.lookup b ~name:"parent" with
  | None -> Alcotest.fail "anchored parent lost"
  | Some p ->
      Alcotest.(check int) "wild slot now empty" 0 (Cxl_ref.get_emb p 0);
      Cxl_ref.drop p);
  Alcotest.(check bool) "still clean" true (check_clean arena)

let test_broken_geometry_quarantined () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let a = Shm.join arena () in
  let r1 = Shm.cxl_malloc a ~size_bytes:32 () in
  let _, gid = Page.block_of_addr a (Cxl_ref.obj r1) in
  Named_roots.publish a ~name:"doomed" r1;
  Cxl_ref.drop r1;
  Shm.leave a;
  (* the page's block-size word no longer matches its size class: its
     geometry is unusable, nothing on it can be trusted *)
  Mem.unsafe_poke mem (Layout.page_block_words lay ~gid) 3;
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let rep = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean rep);
  Alcotest.(check bool) "page quarantined" true (rep.Fsck.pages_quarantined >= 1);
  let b = Shm.join arena () in
  Alcotest.(check int) "page marked quarantined"
    (Config.kind_quarantined Config.small)
    (Page.kind b ~gid);
  (* the object lived on the quarantined page: its anchor must be gone,
     not dangling *)
  (match Named_roots.lookup b ~name:"doomed" with
  | None -> ()
  | Some _ -> Alcotest.fail "root still points into a quarantined page");
  (* allocation keeps working and never lands on the quarantined page *)
  let held = List.init 50 (fun _ -> Shm.cxl_malloc b ~size_bytes:32 ()) in
  List.iter
    (fun r ->
      let _, g = Page.block_of_addr b (Cxl_ref.obj r) in
      Alcotest.(check bool) "quarantined page never reused" true (g <> gid))
    held;
  List.iter Cxl_ref.drop held;
  Shm.leave b;
  Alcotest.(check bool) "still clean" true (check_clean arena)

let test_repair_idempotent () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, _lay = mem_lay arena in
  let a = Shm.join arena () in
  let parent = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.set_emb parent 0 child;
  Cxl_ref.drop child;
  Named_roots.publish a ~name:"parent" parent;
  let pobj = Cxl_ref.obj parent in
  Cxl_ref.drop parent;
  (* two kinds of damage at once, with the client still recorded *)
  Mem.unsafe_poke mem (Obj_header.emb_slot pobj 0) 1;
  Mem.unsafe_poke mem
    (Obj_header.header_of_obj pobj)
    (Obj_header.make ~lcid:2 ~lera:5 ~ref_cnt:6);
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r1 = repair arena in
  Alcotest.(check bool) "first repair clean" true (Fsck.clean r1);
  let r2 = repair arena in
  Alcotest.(check bool) "second repair clean" true (Fsck.clean r2);
  Alcotest.(check int) "nothing left: quarantines" 0 r2.Fsck.pages_quarantined;
  Alcotest.(check int) "nothing left: torn headers" 0 r2.Fsck.torn_headers_cleared;
  Alcotest.(check int) "nothing left: wild refs" 0 r2.Fsck.wild_refs_cleared;
  Alcotest.(check int) "nothing left: frees" 0 r2.Fsck.unreachable_freed;
  Alcotest.(check int) "nothing left: counts" 0 r2.Fsck.counts_fixed;
  Alcotest.(check int) "nothing left: clients" 0 r2.Fsck.clients_swept

(* Reference counting leaks a garbage cycle online; fsck's mark pass is
   the offline tracing collector that reclaims it (§4.1), and leaves what
   a durable root anchors alone. *)
let test_garbage_cycle_reclaimed () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena () in
  Test_gc_persist.make_cycle a;
  let keep = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.write_word child 0 777;
  Cxl_ref.set_emb keep 0 child;
  Cxl_ref.drop child;
  (* a named root, so fsck's client sweep cannot drop [keep] *)
  Named_roots.publish a ~name:"keep" keep;
  Cxl_ref.drop keep;
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check int) "three cycle members freed" 3 r.Fsck.unreachable_freed;
  let b = Shm.join arena () in
  (match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "anchored object lost"
  | Some k ->
      Alcotest.(check int) "reachable child intact" 777
        (Ctx.load b (Obj_header.data_of_obj (Cxl_ref.get_emb k 0)));
      Cxl_ref.drop k);
  Shm.leave b;
  Alcotest.(check bool) "still clean" true (check_clean arena);
  let r2 = repair arena in
  Alcotest.(check int) "second repair frees nothing" 0 r2.Fsck.unreachable_freed;
  Alcotest.(check int) "second repair fixes no count" 0 r2.Fsck.counts_fixed

(* A huge object's payload covers its continuation segments' header words.
   Payload that reads there like a head page of kind Huge holding a counted
   object must not make the continuation look like a second, unreachable
   huge head: the mark pass would free segments from the middle of the
   live object. *)
let test_huge_header_like_payload_kept () =
  let arena = Shm.create ~cfg:Config.small () in
  let lay = Shm.layout arena in
  let a = Shm.join arena () in
  let words = lay.Layout.segment_words + 500 in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  let data = Obj_header.data_of_obj (Cxl_ref.obj r) in
  let cont = Layout.segment_of_addr lay (Cxl_ref.obj r) + 1 in
  let kind_at =
    Layout.page_kind lay ~gid:(Layout.page_gid lay ~seg:cont ~page:0) - data
  in
  let hdr_at = Layout.segment_base lay cont + lay.Layout.seg_hdr_words - data in
  let fake_hdr = Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = 1 } in
  Cxl_ref.write_word r kind_at (Config.kind_huge Config.small);
  Cxl_ref.write_word r hdr_at fake_hdr;
  Cxl_ref.write_word r (words - 1) 4242;
  Named_roots.publish a ~name:"huge" r;
  Cxl_ref.drop r;
  Alcotest.(check bool) "pre-check clean" true (check_clean arena);
  let rep = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean rep);
  Alcotest.(check int) "nothing freed" 0 rep.Fsck.unreachable_freed;
  Alcotest.(check int) "no header cleared" 0 rep.Fsck.torn_headers_cleared;
  let b = Shm.join arena () in
  (match Named_roots.lookup b ~name:"huge" with
  | None -> Alcotest.fail "anchored huge object lost"
  | Some h ->
      Alcotest.(check int) "kind-like payload intact" (Config.kind_huge Config.small)
        (Cxl_ref.read_word h kind_at);
      Alcotest.(check int) "header-like payload intact" fake_hdr
        (Cxl_ref.read_word h hdr_at);
      Alcotest.(check int) "tail intact" 4242 (Cxl_ref.read_word h (words - 1));
      Cxl_ref.drop h);
  Alcotest.(check bool) "clean after repair" true (check_clean arena);
  ignore (Named_roots.unpublish b ~name:"huge");
  Alloc.collect_deferred b;
  Alcotest.(check bool) "clean after drop" true (check_clean arena)

let tmp = Filename.temp_file "cxlshm_fsck" ".pool"

let test_damaged_image_roundtrip () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, _lay = mem_lay arena in
  let a = Shm.join arena () in
  let keep = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word keep 0 31337;
  Named_roots.publish a ~name:"keep" keep;
  let obj = Cxl_ref.obj keep in
  Cxl_ref.drop keep;
  Mem.unsafe_poke mem
    (Obj_header.header_of_obj obj)
    (Obj_header.make ~lcid:1 ~lera:2 ~ref_cnt:5);
  Shm.save arena tmp;
  (* load_raw presents the image as saved: the damage must survive the
     round trip for fsck to see it *)
  let loaded = Shm.load_raw tmp in
  Alcotest.(check bool) "damage survived the image" false (check_clean loaded);
  let r = Shm.fsck loaded in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  let b = Shm.join loaded () in
  match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "anchored object lost across save/fsck"
  | Some k -> Alcotest.(check int) "payload intact" 31337 (Cxl_ref.read_word k 0)

(* The headline guarantee: every crash point x every device-fault
   schedule x both backends recovers to a clean arena. *)
let test_soak_matrix () =
  let runs = Soak.run_matrix ~seed:20250806 ~steps:150 in
  Alcotest.(check int) "full matrix size"
    (2 * List.length Soak.default_schedules * (1 + List.length Fault.all_points))
    (List.length runs);
  List.iter
    (fun r ->
      if not r.Soak.clean then
        Alcotest.failf "unclean run: %s/%s/%s seed=%d" r.Soak.backend
          r.Soak.schedule r.Soak.point r.Soak.seed)
    runs;
  (* faults actually flowed through the pipeline somewhere in the sweep *)
  Alcotest.(check bool) "faults injected" true
    (List.exists (fun r -> r.Soak.dev_faults > 0) runs);
  Alcotest.(check bool) "retries exercised" true
    (List.exists (fun r -> r.Soak.retries > 0) runs);
  Alcotest.(check bool) "escalations exercised" true
    (List.exists (fun r -> r.Soak.escalations > 0) runs);
  let json = Soak.matrix_to_json ~seed:20250806 runs in
  Alcotest.(check bool) "json has totals" true
    (String.length json > 0
    && json.[0] = '{'
    && contains json "\"failures\":0")

(* Damaged adoption state: a dangling journal rootref, a stale claim and
   registry residue of a freed client slot must fail verification, and one
   repair pass must clear all three (pass 2.7). *)
let test_adoption_journal_repaired () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let a = Shm.join arena () in
  (* a live durable root alongside the damage, to prove repair stays scoped *)
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  Named_roots.publish a ~name:"keep" keep;
  Cxl_ref.drop keep;
  Shm.leave a;
  Alcotest.(check bool) "pre-damage clean" true (check_clean arena);
  (* dangling journal entry: rr word that is no valid live rootref *)
  Mem.unsafe_poke mem (Layout.adopt_slot_stamp lay 0) 7;
  Mem.unsafe_poke mem (Layout.adopt_slot_rr lay 0) 12345;
  (* stale claim on an empty slot, naming a freed client *)
  Mem.unsafe_poke mem (Layout.adopt_slot_claim lay 1) 3;
  (* registry residue on a client slot that is free *)
  Mem.unsafe_poke mem (Layout.park_slot_stamp lay 2 0) 9;
  Mem.unsafe_poke mem (Layout.park_slot_rr lay 2 0) 54321;
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "adoption entries cleared" true (r.Fsck.adopt_fixed >= 3);
  Alcotest.(check int) "journal slot zeroed" 0
    (Mem.unsafe_peek mem (Layout.adopt_slot_rr lay 0));
  Alcotest.(check int) "claim zeroed" 0
    (Mem.unsafe_peek mem (Layout.adopt_slot_claim lay 1));
  Alcotest.(check int) "registry residue zeroed" 0
    (Mem.unsafe_peek mem (Layout.park_slot_rr lay 2 0));
  let r2 = repair arena in
  Alcotest.(check int) "idempotent" 0 r2.Fsck.adopt_fixed

(* An occupied park-registry or journal slot at or above its high-water
   word hides from every bounded scan: verification must flag it, and
   repair must raise the word over it (pass 1.6) before the recovery sweep,
   so the sweep journals the registry entry and keeps the journal one. *)
let test_high_water_raised () =
  let module Kv = Cxlshm_kv.Cxl_kv in
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let peek = Mem.unsafe_peek mem and poke = Mem.unsafe_poke mem in
  let svc = Shm.service_ctx arena in
  (* a dead writer's parked record, journaled at slot 0 *)
  let w = Shm.join arena () in
  let store, h = Kv.create w ~buckets:4 ~partitions:1 ~value_words:1 in
  Alcotest.(check bool) "claim" true (Kv.claim_partition h 0);
  Kv.put h ~key:1 ~value:1;
  Kv.put h ~key:2 ~value:2;
  Kv.put_cow h ~key:1 ~value:10;
  let w2 = Shm.join arena () in
  let h2 = Kv.open_store w2 store in
  Client.declare_failed svc ~cid:w.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:w.Ctx.cid);
  (* a live writer's parked record, in its registry slot 0 *)
  Alcotest.(check bool) "takeover" true (Kv.takeover_partition h2 0);
  Kv.put_cow h2 ~key:2 ~value:20;
  let c2 = w2.Ctx.cid in
  Alcotest.(check int) "journal high-water" 1 (peek (Layout.adopt_hw lay));
  Alcotest.(check int) "registry high-water" 1 (peek (Layout.park_hw lay c2));
  Alcotest.(check bool) "sound before the move" true (check_clean arena);
  let move ~from ~into words =
    List.iter2
      (fun a b ->
        poke b (peek a);
        poke a 0)
      (words from) (words into)
  in
  let jrr = peek (Layout.adopt_slot_rr lay 0) in
  let prr = peek (Layout.park_slot_rr lay c2 0) in
  move ~from:0 ~into:5 (fun k ->
      [ Layout.adopt_slot_rr lay k; Layout.adopt_slot_stamp lay k ]);
  move ~from:0 ~into:3 (fun k ->
      [ Layout.park_slot_rr lay c2 k; Layout.park_slot_stamp lay c2 k ]);
  let v = Validate.run mem lay in
  let flagged where =
    List.exists
      (fun e -> contains e where && contains e "high-water")
      v.Validate.errors
  in
  Alcotest.(check bool) "journal slot flagged" true
    (flagged "adoption journal [5]");
  Alcotest.(check bool) "registry slot flagged" true
    (flagged (Printf.sprintf "park registry c%d[3]" c2));
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "journal word raised" true
    (peek (Layout.adopt_hw lay) >= 6);
  Alcotest.(check bool) "registry word raised" true
    (peek (Layout.park_hw lay c2) >= 4);
  let journaled = ref [] in
  for k = 0 to Layout.adopt_capacity lay - 1 do
    let rr = peek (Layout.adopt_slot_rr lay k) in
    if rr <> 0 then journaled := rr :: !journaled
  done;
  Alcotest.(check (list int)) "both records journaled"
    (List.sort compare [ jrr; prr ])
    (List.sort compare !journaled);
  let r2 = repair arena in
  Alcotest.(check int) "idempotent" 0 r2.Fsck.adopt_fixed

let suite =
  [
    Alcotest.test_case "clean arena: nothing to fix" `Quick test_clean_arena_nothing_to_fix;
    Alcotest.test_case "adoption journal repaired" `Quick test_adoption_journal_repaired;
    Alcotest.test_case "high-water words raised" `Quick test_high_water_raised;
    Alcotest.test_case "torn header repaired" `Quick test_torn_header_repaired;
    Alcotest.test_case "wild ref cleared, orphan freed" `Quick test_wild_ref_cleared_unreachable_freed;
    Alcotest.test_case "broken geometry quarantined" `Quick test_broken_geometry_quarantined;
    Alcotest.test_case "repair is idempotent" `Quick test_repair_idempotent;
    Alcotest.test_case "garbage cycle reclaimed" `Quick test_garbage_cycle_reclaimed;
    Alcotest.test_case "huge with header-like payload kept" `Quick
      test_huge_header_like_payload_kept;
    Alcotest.test_case "damaged image round-trip" `Quick test_damaged_image_roundtrip;
    Alcotest.test_case "soak matrix all clean" `Quick test_soak_matrix;
  ]
