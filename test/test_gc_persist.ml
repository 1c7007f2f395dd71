(* Cycle collection (§4.1 future work) and pool persistence (save/load). *)

open Cxlshm

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena ())

(* Build an unreachable 3-cycle through embedded references. *)
let make_cycle ctx =
  let a = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  let b = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  let c = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  Cxl_ref.set_emb a 0 b;
  Cxl_ref.set_emb b 0 c;
  Cxl_ref.set_emb c 0 a;
  (* drop the handles: the cycle keeps itself alive *)
  List.iter Cxl_ref.drop [ a; b; c ]

let test_cycle_leaks_without_gc () =
  let arena, a = setup () in
  make_cycle a;
  let v = Shm.validate arena in
  Alcotest.(check int) "cycle is alive" 3 v.Validate.live_objects;
  Alcotest.(check bool) "but the arena is consistent" true (Validate.is_clean v)

let test_gc_collects_cycle () =
  let arena, a = setup () in
  make_cycle a;
  (* reachable data must survive the collection *)
  let keep = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.write_word child 0 777;
  Cxl_ref.set_emb keep 0 child;
  Cxl_ref.drop child;
  let r = Cycle_gc.collect (Shm.service_ctx arena) in
  Alcotest.(check int) "three cycle members collected" 3 r.Cycle_gc.collected;
  Alcotest.(check bool) "live data marked" true (r.Cycle_gc.marked >= 2);
  Alcotest.(check int) "reachable child intact" 777
    (Ctx.load a (Obj_header.data_of_obj (Cxl_ref.get_emb keep 0)));
  Cxl_ref.drop keep;
  Alloc.collect_deferred a;
  let v = Shm.validate arena in
  Alcotest.(check int) "all reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_gc_traces_through_queues_and_roots () =
  let arena, a = setup () in
  let b = Shm.join arena () in
  (* in-flight queue message and a named root: both must be GC roots *)
  let msg = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.write_word msg 0 1;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  assert (Transfer.send q msg = Transfer.Sent);
  Cxl_ref.drop msg;
  let rooted = Shm.cxl_malloc a ~size_bytes:8 () in
  Named_roots.publish a ~name:"gc-root" rooted;
  Cxl_ref.drop rooted;
  let r = Cycle_gc.collect (Shm.service_ctx arena) in
  Alcotest.(check int) "nothing falsely collected" 0 r.Cycle_gc.collected;
  (* the in-flight message is still deliverable *)
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  (match Transfer.receive qb with
  | Transfer.Received x ->
      Alcotest.(check int) "message survived gc" 1 (Cxl_ref.read_word x 0);
      Cxl_ref.drop x
  | _ -> Alcotest.fail "message lost");
  ignore (Named_roots.unpublish b ~name:"gc-root");
  Transfer.close q;
  Transfer.close qb

(* Marking follows only words that name a block: an embedded word past the
   end of the arena, or into a segment header, is neither marked nor read
   through, and no live object is collected because of it. *)
let test_gc_skips_wild_embedded_words () =
  let arena, a = setup () in
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let far = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let inside = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let set r w = Cxlshm_shmem.Mem.unsafe_poke mem (Obj_header.emb_slot (Cxl_ref.obj r) 0) w in
  set far (lay.Layout.total_words + 6);
  set inside (Layout.segment_base lay 0 + 2);
  let r = Cycle_gc.collect (Shm.service_ctx arena) in
  Alcotest.(check int) "only the two real objects marked" 2 r.Cycle_gc.marked;
  Alcotest.(check int) "nothing collected" 0 r.Cycle_gc.collected;
  set far 0;
  set inside 0;
  List.iter Cxl_ref.drop [ far; inside ];
  Alloc.collect_deferred a;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

(* A huge object's payload covers its continuation segments' header words.
   Payload that reads there like a head page of kind Huge holding a counted
   object must not make the continuation look like a second huge head:
   collection would free segments from the middle of the live object. *)
let test_gc_keeps_huge_with_header_like_payload () =
  let arena, a = setup () in
  let lay = Shm.layout arena in
  let words = lay.Layout.segment_words + 500 in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  let data = Obj_header.data_of_obj (Cxl_ref.obj r) in
  let cont = Layout.segment_of_addr lay (Cxl_ref.obj r) + 1 in
  let put addr w = Cxl_ref.write_word r (addr - data) w in
  put (Layout.page_kind lay ~gid:(Layout.page_gid lay ~seg:cont ~page:0))
    (Config.kind_huge Config.small);
  put
    (Layout.segment_base lay cont + lay.Layout.seg_hdr_words)
    (Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = 1 });
  Cxl_ref.write_word r (words - 1) 4242;
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  let r' = Cycle_gc.collect (Shm.service_ctx arena) in
  Alcotest.(check int) "nothing collected" 0 r'.Cycle_gc.collected;
  Alcotest.(check int) "tail intact" 4242 (Cxl_ref.read_word r (words - 1));
  Alcotest.(check bool) "clean after gc" true (Validate.is_clean (Shm.validate arena));
  Cxl_ref.drop r;
  Alloc.collect_deferred a;
  Alcotest.(check bool) "clean after drop" true (Validate.is_clean (Shm.validate arena))

let prop_gc_never_touches_reachable =
  QCheck.Test.make ~name:"gc never collects reachable objects" ~count:25
    QCheck.(pair (int_bound 1000) (int_bound 10))
    (fun (seed, cycles) ->
      let arena, a = setup () in
      let rng = Random.State.make [| seed |] in
      (* reachable working set *)
      let live =
        List.init 10 (fun i ->
            let r = Shm.cxl_malloc a ~size_bytes:8 () in
            Cxl_ref.write_word r 0 (i * 100 + Random.State.int rng 10);
            r)
      in
      let expected = List.map (fun r -> Cxl_ref.read_word r 0) live in
      for _ = 1 to cycles do
        make_cycle a
      done;
      let rep = Cycle_gc.collect (Shm.service_ctx arena) in
      let ok_counts = rep.Cycle_gc.collected = 3 * cycles in
      let ok_data =
        List.for_all2 (fun r e -> Cxl_ref.read_word r 0 = e) live expected
      in
      List.iter Cxl_ref.drop live;
      Alloc.collect_deferred a;
      ok_counts && ok_data && Validate.is_clean (Shm.validate arena))

(* ---- persistence ---- *)

let tmp = Filename.temp_file "cxlshm" ".pool"

let test_save_load_roundtrip () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_bytes r (Bytes.of_string "persisted");
  Named_roots.publish a ~name:"state" r;
  Cxl_ref.drop r;
  (* the whole cluster powers off; the pool (own PSU) keeps its contents *)
  Shm.save arena tmp;
  let arena2 = Shm.load tmp in
  let v = Shm.validate arena2 in
  Alcotest.(check bool) ("clean after load: " ^ String.concat ";" v.Validate.errors)
    true (Validate.is_clean v);
  Alcotest.(check int) "rooted object survived the blackout" 1
    v.Validate.live_objects;
  let c = Shm.join arena2 () in
  (match Named_roots.lookup c ~name:"state" with
  | Some r2 ->
      Alcotest.(check string) "bytes intact" "persisted"
        (Bytes.to_string (Cxl_ref.read_bytes r2 ~len:9));
      Cxl_ref.drop r2
  | None -> Alcotest.fail "named root lost across restart");
  Sys.remove tmp

let test_load_reaps_stale_clients () =
  let arena, a = setup () in
  (* a holds unrooted data and is "alive" at snapshot time *)
  let _leak = List.init 10 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  Shm.save arena tmp;
  let arena2 = Shm.load tmp in
  (* the stale client was reaped on load; its garbage is gone *)
  let v = Shm.validate arena2 in
  Alcotest.(check int) "stale client data reaped" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v);
  (* its slot is reusable *)
  let c = Shm.join arena2 ~cid:a.Ctx.cid () in
  let r = Shm.cxl_malloc c ~size_bytes:8 () in
  Cxl_ref.drop r;
  Sys.remove tmp

let test_load_rejects_garbage () =
  let oc = open_out_bin tmp in
  Marshal.to_channel oc Config.small [];
  Marshal.to_channel oc (Array.make (Layout.make Config.small).Layout.total_words 0) [];
  close_out oc;
  Alcotest.check_raises "bad magic"
    (Invalid_argument "Shm.load: not a CXL-SHM pool image") (fun () ->
      ignore (Shm.load tmp));
  Sys.remove tmp

let suite =
  [
    Alcotest.test_case "cycle leaks without gc" `Quick test_cycle_leaks_without_gc;
    Alcotest.test_case "gc collects cycle" `Quick test_gc_collects_cycle;
    Alcotest.test_case "gc roots: queues + named" `Quick test_gc_traces_through_queues_and_roots;
    Alcotest.test_case "gc skips wild embedded words" `Quick test_gc_skips_wild_embedded_words;
    Alcotest.test_case "gc keeps huge with header-like payload" `Quick
      test_gc_keeps_huge_with_header_like_payload;
    Generators.to_alcotest prop_gc_never_touches_reachable;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "load reaps stale clients" `Quick test_load_reaps_stale_clients;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
  ]
