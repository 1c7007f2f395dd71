(* Sorted-list ordered map (lib/structures). *)

open Cxlshm
module Sl = Cxlshm_structures.Sorted_list

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena (), Shm.join arena ())

(* ---- sorted list ---- *)

let test_sl_basic () =
  let arena, a, _ = setup () in
  let l = Sl.create a ~value_words:1 in
  Alcotest.(check bool) "insert 5" true (Sl.insert l ~key:5 ~value:50);
  Alcotest.(check bool) "insert 1" true (Sl.insert l ~key:1 ~value:10);
  Alcotest.(check bool) "insert 9" true (Sl.insert l ~key:9 ~value:90);
  Alcotest.(check bool) "dup rejected" false (Sl.insert l ~key:5 ~value:55);
  Alcotest.(check (option int)) "find 5" (Some 50) (Sl.find l ~key:5);
  Alcotest.(check (option int)) "find 2" None (Sl.find l ~key:2);
  Alcotest.(check (option (pair int int))) "min" (Some (1, 10)) (Sl.min_binding l);
  Alcotest.(check int) "length" 3 (Sl.length l);
  (* ordered iteration *)
  let seen = ref [] in
  Sl.iter l (fun ~key ~value -> seen := (key, value) :: !seen);
  Alcotest.(check (list (pair int int))) "ascending" [ (1, 10); (5, 50); (9, 90) ]
    (List.rev !seen);
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "all reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_sl_replace_delete () =
  let arena, a, _ = setup () in
  let l = Sl.create a ~value_words:2 in
  Sl.replace l ~key:3 ~value:30;
  Sl.replace l ~key:3 ~value:33;
  Alcotest.(check (option int)) "replaced" (Some 33) (Sl.find l ~key:3);
  Sl.replace l ~key:7 ~value:70;
  Alcotest.(check bool) "delete 3" true (Sl.delete l ~key:3);
  Alcotest.(check bool) "delete 3 again" false (Sl.delete l ~key:3);
  Alcotest.(check (option int)) "gone" None (Sl.find l ~key:3);
  Alcotest.(check (option int)) "7 intact" (Some 70) (Sl.find l ~key:7);
  Sl.quiesce l;
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_sl_range () =
  let _, a, _ = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:(k * 10)))
    [ 4; 1; 8; 2; 16; 32 ];
  Alcotest.(check (list (pair int int))) "range [2,16)"
    [ (2, 20); (4, 40); (8, 80) ]
    (Sl.range l ~lo:2 ~hi:16);
  Alcotest.(check (list (pair int int))) "empty range" [] (Sl.range l ~lo:9 ~hi:10);
  Sl.close l

let test_sl_shared_reader () =
  let arena, a, b = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:k)) [ 1; 2; 3 ];
  (* share the sentinel through a queue; b reads the same list *)
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  assert (Transfer.send q (Sl.handle_ref l) = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let shared = match Transfer.receive qb with Transfer.Received r -> r | _ -> assert false in
  let lb = Sl.attach b shared in
  Alcotest.(check (option int)) "remote find" (Some 2) (Sl.find lb ~key:2);
  (* a's mutation becomes visible to b with no copy *)
  ignore (Sl.insert l ~key:10 ~value:100);
  Alcotest.(check (option int)) "remote sees new key" (Some 100)
    (Sl.find lb ~key:10);
  Sl.close lb;
  Transfer.close q;
  Transfer.close qb;
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_sl_writer_crash () =
  let arena, a, _ = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:k)) [ 1; 2; 3 ];
  (* crash mid-splice: after the commit CAS, before ModifyRef *)
  a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
  (try ignore (Sl.insert l ~key:99 ~value:99) with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "everything reaped with the writer" 0
    v.Validate.live_objects

(* model-based property *)
let prop_sl_matches_map =
  QCheck.Test.make ~name:"sorted list matches stdlib Map" ~count:30
    QCheck.(list_of_size Gen.(1 -- 80) (pair (int_bound 40) (int_bound 2)))
    (fun ops ->
      let arena, a, _ = setup () in
      let l = Sl.create a ~value_words:1 in
      let module M = Map.Make (Int) in
      let m = ref M.empty in
      List.iter
        (fun (key, kind) ->
          match kind with
          | 0 ->
              Sl.replace l ~key ~value:(key * 7);
              m := M.add key (key * 7) !m
          | 1 ->
              let got = Sl.delete l ~key in
              let expect = M.mem key !m in
              m := M.remove key !m;
              assert (got = expect)
          | _ -> assert (Sl.find l ~key = M.find_opt key !m))
        ops;
      (* full-order check *)
      let got = ref [] in
      Sl.iter l (fun ~key ~value -> got := (key, value) :: !got);
      let ok = List.rev !got = M.bindings !m in
      Sl.close l;
      ignore (Shm.scan_leaking arena);
      ok && Validate.is_clean (Shm.validate arena))

let suite =
  [
    Alcotest.test_case "sorted list basic" `Quick test_sl_basic;
    Alcotest.test_case "sorted list replace/delete" `Quick test_sl_replace_delete;
    Alcotest.test_case "sorted list range" `Quick test_sl_range;
    Alcotest.test_case "sorted list shared reader" `Quick test_sl_shared_reader;
    Alcotest.test_case "sorted list writer crash" `Quick test_sl_writer_crash;
    Generators.to_alcotest prop_sl_matches_map;
  ]
