(* CXL-KV, the baselines, and the Fig 10 workload generators. *)

open Cxlshm
module Cxl_kv = Cxlshm_kv.Cxl_kv
module Tbb_kv = Cxlshm_kv.Tbb_kv
module Lightning_kv = Cxlshm_kv.Lightning_kv
module Zipf = Cxlshm_kv.Zipf
module Ycsb = Cxlshm_kv.Ycsb
module Tatp = Cxlshm_kv.Tatp
module Smallbank = Cxlshm_kv.Smallbank
module Kv_intf = Cxlshm_kv.Kv_intf

let kv_cfg = { Config.small with Config.num_segments = 32; pages_per_segment = 8 }

let fresh () =
  let arena = Shm.create ~cfg:kv_cfg () in
  let a = Shm.join arena () in
  let store, h = Cxl_kv.create a ~buckets:64 ~partitions:4 ~value_words:2 in
  Alcotest.(check bool) "claim p0" true (Cxl_kv.claim_partition h 0);
  Alcotest.(check bool) "claim p1" true (Cxl_kv.claim_partition h 1);
  Alcotest.(check bool) "claim p2" true (Cxl_kv.claim_partition h 2);
  Alcotest.(check bool) "claim p3" true (Cxl_kv.claim_partition h 3);
  (arena, a, store, h)

let test_put_get_delete () =
  let arena, _a, _store, h = fresh () in
  Alcotest.(check (option int)) "miss" None (Cxl_kv.get h ~key:5);
  Cxl_kv.put h ~key:5 ~value:500;
  Alcotest.(check (option int)) "hit" (Some 500) (Cxl_kv.get h ~key:5);
  Cxl_kv.put h ~key:5 ~value:777;
  Alcotest.(check (option int)) "in-place update" (Some 777) (Cxl_kv.get h ~key:5);
  Alcotest.(check bool) "delete" true (Cxl_kv.delete h ~key:5);
  Alcotest.(check (option int)) "gone" None (Cxl_kv.get h ~key:5);
  Alcotest.(check bool) "delete again" false (Cxl_kv.delete h ~key:5);
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "store fully reclaimed" 0 v.Validate.live_objects

let test_collision_chains () =
  let arena, _a, _store, h = fresh () in
  (* 64 buckets, 500 keys: plenty of collisions. *)
  for k = 0 to 499 do
    Cxl_kv.put h ~key:k ~value:(k * 3)
  done;
  Alcotest.(check int) "size" 500 (Cxl_kv.size_estimate h);
  for k = 0 to 499 do
    Alcotest.(check (option int)) (Printf.sprintf "key %d" k) (Some (k * 3))
      (Cxl_kv.get h ~key:k)
  done;
  (* delete every third key *)
  for k = 0 to 499 do
    if k mod 3 = 0 then Alcotest.(check bool) "del" true (Cxl_kv.delete h ~key:k)
  done;
  for k = 0 to 499 do
    let expect = if k mod 3 = 0 then None else Some (k * 3) in
    Alcotest.(check (option int)) (Printf.sprintf "after del %d" k) expect
      (Cxl_kv.get h ~key:k)
  done;
  Cxl_kv.quiesce h;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_put_cow_relocates () =
  let arena, _a, _store, h = fresh () in
  Cxl_kv.put h ~key:3 ~value:30;
  let before = Cxl_kv.get_all_words h ~key:3 in
  (* in-place update keeps the record where it is *)
  Cxl_kv.put h ~key:3 ~value:31;
  Alcotest.(check (option int)) "in place" (Some 31) (Cxl_kv.get h ~key:3);
  (* copy-on-write replaces the record atomically *)
  Cxl_kv.put_cow h ~key:3 ~value:99;
  Alcotest.(check (option int)) "after cow" (Some 99) (Cxl_kv.get h ~key:3);
  ignore before;
  Cxl_kv.quiesce h;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_multi_value_words () =
  let arena, _a, _store, h = fresh () in
  Cxl_kv.put h ~key:9 ~value:100;
  (match Cxl_kv.get_all_words h ~key:9 with
  | Some [| a; b |] ->
      Alcotest.(check int) "word0" 100 a;
      Alcotest.(check int) "word1" 101 b
  | _ -> Alcotest.fail "expected 2 value words");
  Cxl_kv.close h;
  ignore arena

let test_single_writer_enforced () =
  let arena, _a, store, h = fresh () in
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  (* b is not a writer of any partition. *)
  (try
     Cxl_kv.put hb ~key:1 ~value:1;
     Alcotest.fail "expected writer check to fire"
   with Failure _ -> ());
  (* but b reads everything (shared-everything). *)
  Cxl_kv.put h ~key:1 ~value:11;
  Alcotest.(check (option int)) "remote read" (Some 11) (Cxl_kv.get hb ~key:1);
  Cxl_kv.close hb;
  Cxl_kv.close h

let test_writer_failover () =
  (* §6.4.1: dead writer's partition is taken over with one CAS; no data
     moves; the new writer continues in place. *)
  let arena, a, store, h = fresh () in
  Cxl_kv.put h ~key:0 ~value:111;
  Cxl_kv.put h ~key:4 ~value:444;
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  (* writer a dies *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  (* data survives: the index holds the records *)
  Alcotest.(check (option int)) "data survives crash" (Some 111)
    (Cxl_kv.get hb ~key:0);
  Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
  Alcotest.(check (option int)) "writer id updated" (Some b.Ctx.cid)
    (Cxl_kv.writer_of_partition hb 0);
  Cxl_kv.put hb ~key:0 ~value:999;
  Alcotest.(check (option int)) "new writer writes" (Some 999)
    (Cxl_kv.get hb ~key:0);
  Cxl_kv.close hb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_concurrent_readers () =
  let arena, _a, store, h = fresh () in
  for k = 0 to 199 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let reader () =
    let c = Shm.join arena () in
    let hr = Cxl_kv.open_store c store in
    let ok = ref true in
    for k = 0 to 199 do
      match Cxl_kv.get hr ~key:k with
      | Some v when v = k -> ()
      | _ -> ok := false
    done;
    Cxl_kv.close hr;
    Shm.leave c;
    !ok
  in
  let ds = List.init 3 (fun _ -> Domain.spawn reader) in
  let all = List.for_all Fun.id (List.map Domain.join ds) in
  Alcotest.(check bool) "all readers consistent" true all;
  Cxl_kv.close h

(* Model-based property: CXL-KV behaves like a Hashtbl under random op
   sequences. *)
let prop_kv_model =
  QCheck.Test.make ~name:"cxl-kv matches model" ~count:40
    QCheck.(list_of_size Gen.(1 -- 120) (pair (int_bound 60) (int_bound 2)))
    (fun ops ->
      let arena = Shm.create ~cfg:kv_cfg () in
      let a = Shm.join arena () in
      let _store, h = Cxl_kv.create a ~buckets:16 ~partitions:2 ~value_words:1 in
      ignore (Cxl_kv.claim_partition h 0);
      ignore (Cxl_kv.claim_partition h 1);
      let model = Hashtbl.create 64 in
      let ok =
        List.for_all
          (fun (key, kind) ->
            match kind with
            | 0 ->
                Cxl_kv.put h ~key ~value:(key * 7);
                Hashtbl.replace model key (key * 7);
                true
            | 1 ->
                let got = Cxl_kv.delete h ~key in
                let expect = Hashtbl.mem model key in
                Hashtbl.remove model key;
                got = expect
            | _ -> Cxl_kv.get h ~key = Hashtbl.find_opt model key)
          ops
      in
      Cxl_kv.close h;
      ignore (Shm.scan_leaking arena);
      ok && Validate.is_clean (Shm.validate arena))

let test_baselines_agree () =
  (* TBB-KV and Lightning-KV produce the same results as a model. *)
  let tbb = Tbb_kv.create ~buckets:32 ~value_words:1 ~capacity:1000 ~threads:1 in
  let th = Tbb_kv.handle tbb 0 in
  let lkv = Lightning_kv.create ~buckets:32 ~value_words:1 ~words:65_536 ~threads:1 in
  let lh = Lightning_kv.handle lkv 0 in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 500 do
    let key = Random.State.int rng 50 in
    match Random.State.int rng 3 with
    | 0 ->
        let v = Random.State.int rng 10_000 in
        Tbb_kv.put th ~key ~value:v;
        Lightning_kv.put lh ~key ~value:v;
        Hashtbl.replace model key v
    | 1 ->
        let e = Hashtbl.mem model key in
        Hashtbl.remove model key;
        Alcotest.(check bool) "tbb delete" e (Tbb_kv.delete th ~key);
        Alcotest.(check bool) "lightning delete" e (Lightning_kv.delete lh ~key)
    | _ ->
        let e = Hashtbl.find_opt model key in
        Alcotest.(check (option int)) "tbb get" e (Tbb_kv.get th ~key);
        Alcotest.(check (option int)) "lightning get" e (Lightning_kv.get lh ~key)
  done

let test_zipf_shape () =
  let z = Zipf.create ~n:1000 ~theta:0.99 ~seed:1 in
  let counts = Array.make 1000 0 in
  let samples = 50_000 in
  for _ = 1 to samples do
    let k = Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  let top1 = float_of_int counts.(0) /. float_of_int samples in
  let expected = Zipf.expected_top1_mass z in
  Alcotest.(check bool)
    (Printf.sprintf "top-1 mass %.3f ≈ %.3f" top1 expected)
    true
    (Float.abs (top1 -. expected) < 0.02);
  (* skew: hottest beats the tail decisively *)
  Alcotest.(check bool) "skewed" true (counts.(0) > 10 * counts.(500));
  let u = Zipf.create ~n:1000 ~theta:0.0 ~seed:1 in
  let uc = Array.make 1000 0 in
  for _ = 1 to samples do
    let k = Zipf.sample u in
    uc.(k) <- uc.(k) + 1
  done;
  Alcotest.(check bool) "uniform is flat-ish" true
    (uc.(0) < 3 * (samples / 1000))

let test_ycsb_presets () =
  List.iter
    (fun (preset, expect_writes) ->
      let w = Ycsb.of_preset ~keys:100 ~seed:5 preset in
      let n = 4_000 in
      let writes = ref 0 in
      for _ = 1 to n do
        if Kv_intf.is_write (Ycsb.next w) then incr writes
      done;
      let ratio = float_of_int !writes /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f ≈ %.2f" (Ycsb.preset_name preset) ratio
           expect_writes)
        true
        (Float.abs (ratio -. expect_writes) < 0.03))
    [ (Ycsb.A, 0.5); (Ycsb.B, 0.05); (Ycsb.C, 0.0); (Ycsb.F, 0.5) ]

let test_kv_iter () =
  let arena, _a, _store, h = fresh () in
  for k = 0 to 49 do
    Cxl_kv.put h ~key:k ~value:(k * 2)
  done;
  Alcotest.(check (list int)) "keys sorted" (List.init 50 Fun.id) (Cxl_kv.keys h);
  let sum = ref 0 in
  Cxl_kv.iter h (fun ~key:_ ~value -> sum := !sum + value);
  Alcotest.(check int) "value sum" (49 * 50) !sum;
  Cxl_kv.close h;
  ignore arena

let test_ycsb_mix () =
  let w = Ycsb.create ~keys:100 ~write_ratio:0.1 ~theta:0.5 ~seed:3 in
  let n = 10_000 in
  let writes = ref 0 in
  for _ = 1 to n do
    if Kv_intf.is_write (Ycsb.next w) then incr writes
  done;
  let ratio = float_of_int !writes /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "write ratio %.3f ≈ 0.1" ratio)
    true
    (Float.abs (ratio -. 0.1) < 0.02)

let test_tatp_mix () =
  let t = Tatp.create ~subscribers:100 ~seed:4 in
  let txns = 10_000 in
  let reads = ref 0 in
  for _ = 1 to txns do
    let ops = Tatp.next t in
    if List.for_all (fun o -> not (Kv_intf.is_write o)) ops then incr reads
  done;
  let frac = float_of_int !reads /. float_of_int txns in
  Alcotest.(check bool)
    (Printf.sprintf "read-only fraction %.3f ≈ 0.8" frac)
    true
    (Float.abs (frac -. Tatp.read_fraction) < 0.02)

let test_smallbank_runs () =
  let sb = Smallbank.create ~accounts:50 ~seed:5 in
  let tbb = Tbb_kv.create ~buckets:64 ~value_words:1 ~capacity:500 ~threads:1 in
  let th = Tbb_kv.handle tbb 0 in
  let apply = function
    | Kv_intf.Insert (k, v) | Kv_intf.Update (k, v) ->
        Tbb_kv.put th ~key:k ~value:v
    | Kv_intf.Rmw (k, v) ->
        let old = Option.value (Tbb_kv.get th ~key:k) ~default:0 in
        Tbb_kv.put th ~key:k ~value:(old + v)
    | Kv_intf.Read k -> ignore (Tbb_kv.get th ~key:k)
    | Kv_intf.Delete k -> ignore (Tbb_kv.delete th ~key:k)
  in
  List.iter apply (Smallbank.load_ops sb);
  for _ = 1 to 1000 do
    List.iter apply (Smallbank.next sb)
  done

(* ---- PR-8: generators, era-tied quiesce, handoff, serving harness ---- *)

(* The O(1) Gray sampler against the exact distribution: brute-force the
   normalizer and compare empirical rank frequencies at a fixed seed. *)
let test_zipf_reference () =
  let n = 200 and theta = 0.7 in
  let h = ref 0.0 in
  for i = 1 to n do
    h := !h +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let z = Zipf.create ~n ~theta ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "top-1 closed form %.4f ≈ %.4f"
       (Zipf.expected_top1_mass z) (1.0 /. !h))
    true
    (Float.abs (Zipf.expected_top1_mass z -. (1.0 /. !h)) < 0.002);
  let samples = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let k = Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  List.iter
    (fun rank ->
      let expect =
        1.0 /. (Float.pow (float_of_int (rank + 1)) theta *. !h)
      in
      let got = float_of_int counts.(rank) /. float_of_int samples in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d: %.4f ≈ %.4f" rank got expect)
        true
        (Float.abs (got -. expect) < 0.005 +. (0.1 *. expect)))
    [ 0; 1; 2; 9; 49 ];
  (* the closed form needs theta in [0, 1) *)
  (match Zipf.create ~n:10 ~theta:1.0 ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "theta = 1 accepted");
  match Zipf.create ~n:10 ~theta:(-0.1) ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative theta accepted"

let test_ycsb_load_stream () =
  let w = Ycsb.create ~keys:500 ~write_ratio:0.5 ~theta:0.5 ~seed:3 in
  let n = ref 0 in
  Ycsb.load_iter w (fun op ->
      (match op with
      | Kv_intf.Insert (k, v) ->
          Alcotest.(check int) "load key order" !n k;
          Alcotest.(check int) "load value" k v
      | _ -> Alcotest.fail "load phase must be all inserts");
      incr n);
  Alcotest.(check int) "streamed count" 500 !n;
  Alcotest.(check int) "list count" 500 (List.length (Ycsb.load_ops w));
  Alcotest.(check bool) "seq matches list" true
    (List.of_seq (Ycsb.load_seq w) = Ycsb.load_ops w)

let test_ycsb_latest_bias () =
  let w = Ycsb.of_preset ~keys:10_000 ~seed:9 Ycsb.D in
  Alcotest.(check bool) "D reads the latest" true (Ycsb.dist w = Ycsb.Latest);
  let reads = ref 0 and hot = ref 0 in
  for _ = 1 to 8_000 do
    match Ycsb.next w with
    | Kv_intf.Read k ->
        incr reads;
        if k >= Ycsb.keys w * 9 / 10 then incr hot
    | _ -> ()
  done;
  let frac = float_of_int !hot /. float_of_int !reads in
  (* uniform would put 10% of reads in the newest decile; latest-biased
     zipf(0.9) puts ~75% there *)
  Alcotest.(check bool)
    (Printf.sprintf "newest-decile read fraction %.2f > 0.5" frac)
    true (frac > 0.5)

let test_rmw_semantics () =
  let _arena, _a, _store, h = fresh () in
  Alcotest.(check (option int)) "rmw on missing inserts delta" None
    (Cxl_kv.rmw h ~key:9 ~delta:5);
  Alcotest.(check (option int)) "inserted" (Some 5) (Cxl_kv.get h ~key:9);
  Alcotest.(check (option int)) "rmw returns old" (Some 5)
    (Cxl_kv.rmw h ~key:9 ~delta:37);
  Alcotest.(check (option int)) "accumulated" (Some 42) (Cxl_kv.get h ~key:9);
  let w = Ycsb.of_preset ~keys:50 ~seed:2 Ycsb.F in
  let saw = ref false in
  for _ = 1 to 200 do
    match Ycsb.next w with Kv_intf.Rmw _ -> saw := true | _ -> ()
  done;
  Alcotest.(check bool) "preset F emits rmw ops" true !saw

(* A paused protected traversal must pin COW-displaced records across
   quiesce; releasing the era unpins them. *)
let test_quiesce_era_tied () =
  let arena, _a, store, h = fresh () in
  Cxl_kv.put h ~key:1 ~value:11;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  Cxl_kv.put_cow h ~key:1 ~value:22;
  Alcotest.(check int) "parked" 1 (Cxl_kv.deferred_count h);
  Cxl_kv.quiesce h;
  Alcotest.(check int) "pinned by the announced era" 1
    (Cxl_kv.deferred_count h);
  Hazard.exit rctx;
  Cxl_kv.quiesce h;
  Alcotest.(check int) "freed once the reader moved on" 0
    (Cxl_kv.deferred_count h);
  Alcotest.(check (option int)) "new value" (Some 22) (Cxl_kv.get h ~key:1);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* Planned shard handoff: parked records ride a transfer queue to a
   successor, stay pinned there, and reclaim once the era clears. *)
let test_handoff_adopt () =
  let arena, a, store, h = fresh () in
  for k = 0 to 9 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  Hazard.enter rctx;
  for k = 0 to 9 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "ten parked" 10 (Cxl_kv.deferred_count h);
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:16 in
  let sent = Cxl_kv.handoff_deferred h q in
  Alcotest.(check int) "all sent" 10 sent;
  Alcotest.(check int) "sender drained" 0 (Cxl_kv.deferred_count h);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Alcotest.(check int) "all adopted" 10 (Cxl_kv.adopt_deferred hb qb ~max:10);
  Alcotest.(check int) "parked at successor" 10 (Cxl_kv.deferred_count hb);
  Transfer.close qb;
  Transfer.close q;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "still pinned at successor" 10
    (Cxl_kv.deferred_count hb);
  Hazard.exit rctx;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "reclaimed" 0 (Cxl_kv.deferred_count hb);
  for k = 0 to 9 do
    Alcotest.(check (option int)) "value survives" (Some (100 + k))
      (Cxl_kv.get hb ~key:k)
  done;
  Cxl_kv.close hb;
  Shm.leave b;
  Shm.leave rctx;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* ---- PR-9: crash-adoption of a dead writer's parked records ---- *)

module Mem = Cxlshm_shmem.Mem

(* The writer's persistent parked-record registry, as (obj, stamp) pairs —
   the objects recovery must never free while a reader era pins them. *)
let registry_snapshot arena cid =
  let lay = Shm.layout arena in
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let acc = ref [] in
  for k = 0 to Layout.park_capacity lay - 1 do
    let rr = peek (Layout.park_slot_rr lay cid k) in
    if rr <> 0 then
      acc :=
        (peek (Rootref.pptr_slot rr), peek (Layout.park_slot_stamp lay cid k))
        :: !acc
  done;
  !acc

(* Tentpole satellite (a): a writer dies with era-pinned parked records;
   recovery journals them (stamps intact) and a live successor adopts —
   nothing is freed until the pinned reader moves on. *)
let test_crash_adopt_successor () =
  let arena, a, store, h = fresh () in
  for k = 0 to 9 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to 9 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "ten parked" 10 (Cxl_kv.deferred_count h);
  let parked = registry_snapshot arena a.Ctx.cid in
  Alcotest.(check int) "ten registered" 10 (List.length parked);
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "all ten journaled" 10 rep.Recovery.parked_journaled;
  Alcotest.(check int) "journal pending" 10 (Recovery.adopt_pending svc);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "parked record survives recovery" true
        (peek obj <> 0))
    parked;
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
  Alcotest.(check int) "successor adopts all" 10 (Cxl_kv.adopt_recovered hb);
  Alcotest.(check int) "journal drained" 0 (Recovery.adopt_pending svc);
  Alcotest.(check int) "re-parked at successor" 10 (Cxl_kv.deferred_count hb);
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "stamps intact: still era-pinned" 10
    (Cxl_kv.deferred_count hb);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "still live under the pin" true (peek obj <> 0))
    parked;
  (* the pinned reader still sees every post-COW value *)
  for k = 0 to 9 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "reclaimed once the era passed" 0
    (Cxl_kv.deferred_count hb);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close hb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* Tentpole satellite (b): no successor joins — the journal keeps the dead
   writer's records monitor-parked, era-gated, until the drain releases
   them once every announced era has passed. *)
let test_crash_no_successor_drain () =
  let arena, a, store, h = fresh () in
  for k = 0 to 5 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to 5 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let parked = registry_snapshot arena a.Ctx.cid in
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "all journaled" 6 rep.Recovery.parked_journaled;
  (* the era still pins: the drain must release nothing *)
  Alcotest.(check int) "drain gated by the announced era" 0
    (Recovery.drain_adopt_journal svc);
  Alcotest.(check int) "still monitor-parked" 6 (Recovery.adopt_pending svc);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "pinned record not freed" true (peek obj <> 0))
    parked;
  for k = 0 to 5 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  Alcotest.(check int) "drained once the era passed" 6
    (Recovery.drain_adopt_journal svc);
  Alcotest.(check int) "journal empty" 0 (Recovery.adopt_pending svc);
  Cxl_kv.close hr;
  Shm.leave rctx;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* Tentpole satellite (c): kill the protocol at every labeled adoption
   crash point — the writer mid-park, the recovery service mid-journal and
   mid-phases, a successor between claim / registry append / journal clear
   — then resume; every parked record must end journaled exactly once,
   adopted, and never freed while the reader era pins. *)
let test_adoption_crash_windows () =
  let run_point point =
    let label suffix = Fault.point_name point ^ ": " ^ suffix in
    let arena = Shm.create ~cfg:kv_cfg () in
    let a = Shm.join arena () in
    let store, h = Cxl_kv.create a ~buckets:16 ~partitions:1 ~value_words:1 in
    Alcotest.(check bool) (label "claim") true (Cxl_kv.claim_partition h 0);
    let nkeys = 6 in
    for k = 0 to nkeys - 1 do
      Cxl_kv.put h ~key:k ~value:k
    done;
    let rctx = Shm.join arena () in
    let hr = Cxl_kv.open_store rctx store in
    Hazard.enter rctx;
    (* Park the displaced records; in the writer-side window the last COW
       dies right after its registry append — registered, but neither
       unlinked nor on the volatile deferred list. *)
    let cows_committed =
      if point = Fault.Park_after_append then begin
        for k = 0 to nkeys - 2 do
          Cxl_kv.put_cow h ~key:k ~value:(100 + k)
        done;
        a.Ctx.fault <- Fault.at point ~nth:1;
        (try
           Cxl_kv.put_cow h ~key:(nkeys - 1) ~value:(100 + nkeys - 1);
           Alcotest.fail (label "expected writer crash")
         with Fault.Crashed _ -> ());
        a.Ctx.fault <- Fault.none;
        nkeys - 1
      end
      else begin
        for k = 0 to nkeys - 1 do
          Cxl_kv.put_cow h ~key:k ~value:(100 + k)
        done;
        nkeys
      end
    in
    let parked = registry_snapshot arena a.Ctx.cid in
    Alcotest.(check int) (label "every park registered") nkeys
      (List.length parked);
    let peek = Mem.unsafe_peek (Shm.mem arena) in
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    (* Recovery-side windows: die mid-move (entry in registry AND journal)
       or after the move; a re-run resumes under the lock and must not
       journal anything twice. *)
    (match point with
    | Fault.Adopt_mid_journal | Fault.Recovery_mid_phases ->
        svc.Ctx.fault <- Fault.at point ~nth:1;
        (try
           ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
           Alcotest.fail (label "expected recovery crash")
         with Fault.Crashed _ -> ());
        svc.Ctx.fault <- Fault.none;
        ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid)
    | _ -> ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid));
    Alcotest.(check int) (label "journal holds every parked record") nkeys
      (Recovery.adopt_pending svc);
    List.iter
      (fun (obj, _) ->
        Alcotest.(check bool) (label "pinned record survives recovery") true
          (peek obj <> 0))
      parked;
    (* Successor-side windows: the first adopter dies between claim,
       registry append and journal clear; recovering IT resolves the
       half-done adoption (committed move re-journals from its registry, an
       uncommitted claim is voided) and a second successor takes over. *)
    let b1 = Shm.join arena () in
    let hb1 = Cxl_kv.open_store b1 store in
    let hb =
      if point = Fault.Adopt_after_claim || point = Fault.Adopt_after_append
      then begin
        b1.Ctx.fault <- Fault.at point ~nth:1;
        (try
           ignore (Cxl_kv.adopt_recovered hb1);
           Alcotest.fail (label "expected successor crash")
         with Fault.Crashed _ -> ());
        b1.Ctx.fault <- Fault.none;
        Client.declare_failed svc ~cid:b1.Ctx.cid;
        ignore (Recovery.recover svc ~failed_cid:b1.Ctx.cid);
        Alcotest.(check int) (label "journal intact after successor crash")
          nkeys
          (Recovery.adopt_pending svc);
        let b2 = Shm.join arena () in
        Cxl_kv.open_store b2 store
      end
      else hb1
    in
    Alcotest.(check bool) (label "takeover") true
      (Cxl_kv.takeover_partition hb 0);
    Alcotest.(check int) (label "adopted all") nkeys
      (Cxl_kv.adopt_recovered hb);
    Alcotest.(check int) (label "journal empty") 0 (Recovery.adopt_pending svc);
    Cxl_kv.quiesce hb;
    Alcotest.(check int) (label "stamps intact: still era-pinned") nkeys
      (Cxl_kv.deferred_count hb);
    List.iter
      (fun (obj, _) ->
        Alcotest.(check bool) (label "still live under the pin") true
          (peek obj <> 0))
      parked;
    (* the pinned reader sees a consistent store: committed COWs show the
       new value, the crashed COW kept the old record in the chain *)
    for k = 0 to nkeys - 1 do
      let expect = if k < cows_committed then 100 + k else k in
      Alcotest.(check (option int)) (label "reader value") (Some expect)
        (Cxl_kv.get hr ~key:k)
    done;
    Hazard.exit rctx;
    Cxl_kv.quiesce hb;
    Alcotest.(check int) (label "reclaimed once the era passed") 0
      (Cxl_kv.deferred_count hb);
    Cxl_kv.close hr;
    Shm.leave rctx;
    Cxl_kv.close hb;
    ignore (Shm.scan_leaking arena);
    let v = Shm.validate arena in
    Alcotest.(check bool)
      (label ("clean: " ^ String.concat ";" v.Validate.errors))
      true (Validate.is_clean v)
  in
  List.iter run_point
    [
      Fault.Park_after_append;
      Fault.Adopt_mid_journal;
      Fault.Recovery_mid_phases;
      Fault.Adopt_after_claim;
      Fault.Adopt_after_append;
    ]

(* Partial-handoff regression: a transfer ring too small for the parked
   list moves only a dense prefix; the retained suffix must keep its
   ORIGINAL retire stamps and registry slots (the historical bug re-handled
   the suffix, so a quiesce right after a partial send freed era-pinned
   records). *)
let test_partial_handoff_era_pinned () =
  let arena, a, store, h = fresh () in
  for k = 0 to 9 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to 9 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let before = registry_snapshot arena a.Ctx.cid in
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let sent = Cxl_kv.handoff_deferred h q in
  Alcotest.(check bool) "ring forced a partial send" true
    (sent > 0 && sent < 10);
  Alcotest.(check int) "suffix retained" (10 - sent) (Cxl_kv.deferred_count h);
  (* the retained entries keep their original stamps in the registry *)
  let after = registry_snapshot arena a.Ctx.cid in
  Alcotest.(check int) "registry matches the suffix" (10 - sent)
    (List.length after);
  List.iter
    (fun (obj, stamp) ->
      match List.assoc_opt obj before with
      | Some orig ->
          Alcotest.(check int) "original retire stamp kept" orig stamp
      | None -> Alcotest.fail "retained entry not in pre-handoff registry")
    after;
  (* quiesce right after the partial send: the era still pins, so nothing
     may be freed on either side *)
  Cxl_kv.quiesce h;
  Alcotest.(check int) "quiesce freed no pinned suffix" (10 - sent)
    (Cxl_kv.deferred_count h);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "record still live" true (peek obj <> 0))
    before;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Alcotest.(check int) "prefix adopted" sent
    (Cxl_kv.adopt_deferred hb qb ~max:sent);
  Transfer.close qb;
  Transfer.close q;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "adopted prefix still pinned" sent
    (Cxl_kv.deferred_count hb);
  for k = 0 to 9 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  Cxl_kv.quiesce h;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "suffix reclaimed" 0 (Cxl_kv.deferred_count h);
  Alcotest.(check int) "prefix reclaimed" 0 (Cxl_kv.deferred_count hb);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close hb;
  Shm.leave b;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

module Stats = Cxlshm_shmem.Stats

(* Joining charges what it touches, not what the tables could hold: the
   join-time scans (the free park-registry slots, the cold owned-segment
   set) walk in ascending address order, so after the first line every
   load streams instead of paying a random miss. *)
let test_join_scans_stream () =
  let open_store_cost park_slots =
    let cfg = { kv_cfg with Config.park_slots } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let store, _h = Cxl_kv.create a ~buckets:16 ~partitions:1 ~value_words:1 in
    let b = Shm.join arena () in
    let before = Stats.copy b.Ctx.st in
    let hb = Cxl_kv.open_store b store in
    let cost = (Stats.diff b.Ctx.st before).Stats.rand_accesses in
    (* the free list is ascending: a fresh writer parks into slots 0, 1, 2 *)
    Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
    for k = 0 to 2 do
      Cxl_kv.put hb ~key:k ~value:k
    done;
    let rctx = Shm.join arena () in
    Hazard.enter rctx;
    for k = 0 to 2 do
      Cxl_kv.put_cow hb ~key:k ~value:(100 + k)
    done;
    let peek = Mem.unsafe_peek (Shm.mem arena) in
    let lay = Shm.layout arena in
    List.iter
      (fun k ->
        Alcotest.(check bool)
          (Printf.sprintf "park_slots=%d: slot %d taken in order" park_slots k)
          (k < 3)
          (peek (Layout.park_slot_rr lay b.Ctx.cid k) <> 0))
      [ 0; 1; 2; 3 ];
    cost
  in
  let small = open_store_cost 16 and large = open_store_cost 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "open_store random misses %d (16 slots) vs %d (4096)" small
       large)
    true
    (abs (large - small) <= 2);
  let cfg = { Config.small with Config.num_segments = 256; pages_per_segment = 1 } in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () and other = Shm.join arena () in
  (* two clients filling pages in turn, so [a]'s segments have holes *)
  for _ = 1 to 4 do
    List.iter
      (fun c -> for _ = 1 to 64 do ignore (Alloc.alloc_rootref c) done)
      [ a; other ]
  done;
  let svc = Shm.service_ctx arena in
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let lay = Shm.layout arena in
  let expect =
    List.filter
      (fun s -> peek (Layout.seg_occupied lay s) = a.Ctx.cid + 1)
      (List.init cfg.Config.num_segments Fun.id)
  in
  Alcotest.(check bool)
    ("several segments: " ^ String.concat "," (List.map string_of_int expect))
    true
    (List.length expect > 2);
  Alcotest.(check (list int)) "owned_by ascending" expect
    (Segment.owned_by svc ~cid:a.Ctx.cid);
  let b = Shm.join arena () in
  let before = Stats.copy b.Ctx.st in
  Alcotest.(check (list int)) "owns nothing" [] (Segment.owned_by b ~cid:b.Ctx.cid);
  let d = Stats.diff b.Ctx.st before in
  Alcotest.(check bool)
    (Printf.sprintf "cold owned_by: %d random misses over 256 segments"
       d.Stats.rand_accesses)
    true
    (d.Stats.rand_accesses <= 1)

(* Recovery reads the adoption journal once: each extra parked record costs
   recovery its own handful of words, not another pass over the journal.
   Both writers run the same 24 COW updates, so they carve the same pages;
   they differ only in how many records are still parked when they die
   (the rest were reclaimed before a reader pinned the era). *)
let test_recovery_reads_journal_once () =
  let nkeys = 24 in
  let recover_cost nparked =
    let cfg = { kv_cfg with Config.park_slots = 64; adopt_slots = 4096 } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let _store, h = Cxl_kv.create a ~buckets:64 ~partitions:1 ~value_words:1 in
    Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
    for k = 0 to nkeys - 1 do
      Cxl_kv.put h ~key:k ~value:k
    done;
    for k = nparked to nkeys - 1 do
      Cxl_kv.put_cow h ~key:k ~value:(100 + k)
    done;
    Cxl_kv.quiesce h;
    Alcotest.(check int) "unpinned parks reclaimed" 0 (Cxl_kv.deferred_count h);
    let rctx = Shm.join arena () in
    Hazard.enter rctx;
    for k = 0 to nparked - 1 do
      Cxl_kv.put_cow h ~key:k ~value:(100 + k)
    done;
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    let before = Stats.copy svc.Ctx.st in
    let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
    let cost = Stats.total_accesses (Stats.diff svc.Ctx.st before) in
    Alcotest.(check int) "all journaled" nparked rep.Recovery.parked_journaled;
    Alcotest.(check int) "journal pending" nparked (Recovery.adopt_pending svc);
    cost
  in
  let one = recover_cost 1 and many = recover_cost nkeys in
  Alcotest.(check bool)
    (Printf.sprintf "recovery accesses: %d (1 parked) vs %d (%d parked)" one
       many nkeys)
    true
    (many - one < (nkeys - 1) * 64)

(* Recovery and adoption cost what the dead writer parked, not what the
   tables could hold: every registry and journal scan stops at its
   high-water word. The same writer parks the same records (reusing a
   reclaimed slot on the way) and dies, once with 16-slot tables and once
   with 4,096-slot ones; recovery and the successor's adoption must touch
   exactly as many words either way. *)
let test_recovery_cost_capacity_free () =
  let cost slots =
    let cfg = { kv_cfg with Config.park_slots = slots; adopt_slots = slots } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let store, h = Cxl_kv.create a ~buckets:64 ~partitions:1 ~value_words:1 in
    Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
    for k = 0 to 7 do
      Cxl_kv.put h ~key:k ~value:k
    done;
    Cxl_kv.put_cow h ~key:0 ~value:50;
    Cxl_kv.quiesce h;
    let rctx = Shm.join arena () in
    Hazard.enter rctx;
    for k = 0 to 7 do
      Cxl_kv.put_cow h ~key:k ~value:(100 + k)
    done;
    let b = Shm.join arena () in
    let hb = Cxl_kv.open_store b store in
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    let before = Stats.copy svc.Ctx.st in
    let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
    let recover = Stats.total_accesses (Stats.diff svc.Ctx.st before) in
    Alcotest.(check int) "all journaled" 8 rep.Recovery.parked_journaled;
    Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
    let before = Stats.copy b.Ctx.st in
    Alcotest.(check int) "all adopted" 8 (Cxl_kv.adopt_recovered hb);
    let adopt = Stats.total_accesses (Stats.diff b.Ctx.st before) in
    Hazard.exit rctx;
    Cxl_kv.quiesce hb;
    Alcotest.(check int) "adopted records reclaimed" 0 (Cxl_kv.deferred_count hb);
    (recover, adopt)
  in
  let small = cost 16 and large = cost 4096 in
  Alcotest.(check (pair int int))
    "recover / adopt_recovered accesses: 16 slots = 4,096 slots" small large

let suite =
  [
    Alcotest.test_case "put/get/delete" `Quick test_put_get_delete;
    Alcotest.test_case "collision chains" `Quick test_collision_chains;
    Alcotest.test_case "put_cow relocates" `Quick test_put_cow_relocates;
    Alcotest.test_case "multi-word values" `Quick test_multi_value_words;
    Alcotest.test_case "single-writer enforced" `Quick test_single_writer_enforced;
    Alcotest.test_case "writer failover (§6.4.1)" `Quick test_writer_failover;
    Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers;
    Generators.to_alcotest prop_kv_model;
    Alcotest.test_case "baselines agree" `Quick test_baselines_agree;
    Alcotest.test_case "zipf shape" `Quick test_zipf_shape;
    Alcotest.test_case "ycsb mix" `Quick test_ycsb_mix;
    Alcotest.test_case "ycsb presets" `Quick test_ycsb_presets;
    Alcotest.test_case "kv iter/keys" `Quick test_kv_iter;
    Alcotest.test_case "tatp mix" `Quick test_tatp_mix;
    Alcotest.test_case "smallbank runs" `Quick test_smallbank_runs;
    Alcotest.test_case "zipf vs exact CDF" `Quick test_zipf_reference;
    Alcotest.test_case "ycsb streaming load" `Quick test_ycsb_load_stream;
    Alcotest.test_case "ycsb D latest bias" `Quick test_ycsb_latest_bias;
    Alcotest.test_case "rmw semantics (YCSB-F)" `Quick test_rmw_semantics;
    Alcotest.test_case "quiesce is era-tied" `Quick test_quiesce_era_tied;
    Alcotest.test_case "deferred handoff/adopt" `Quick test_handoff_adopt;
    Alcotest.test_case "crash adoption: live successor" `Quick
      test_crash_adopt_successor;
    Alcotest.test_case "crash adoption: monitor-parked drain" `Quick
      test_crash_no_successor_drain;
    Alcotest.test_case "adoption crash windows resume" `Quick
      test_adoption_crash_windows;
    Alcotest.test_case "partial handoff keeps era pins" `Quick
      test_partial_handoff_era_pinned;
    Alcotest.test_case "join scans stream in address order" `Quick
      test_join_scans_stream;
    Alcotest.test_case "recovery reads the journal once" `Quick
      test_recovery_reads_journal_once;
    Alcotest.test_case "recovery cost is independent of registry capacity"
      `Quick test_recovery_cost_capacity_free;
  ]
