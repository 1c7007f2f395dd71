(* Garbage cycles (reclaimed offline by fsck, see test_fsck.ml) and pool
   persistence (save/load). *)

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
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "load reaps stale clients" `Quick test_load_reaps_stale_clients;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
  ]
