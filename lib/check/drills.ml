(* The drill registry: every fault-injection drill behind one name, each
   returning a pass bit, a one-line verdict and a JSON record. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Cxl_kv = Cxlshm_kv.Cxl_kv

type result = { pass : bool; report : string; json : string }

type t = { name : string; doc : string; seed : int; run : seed:int -> result }

let striped4 = Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] }

(* ---- soak: the crash-point x device-fault matrix ---- *)

let soak ~seed =
  let runs = Soak.run_matrix ~seed ~steps:400 in
  let unreached = Soak.unreached_points runs in
  let fails = Soak.failures runs in
  {
    pass = fails = [];
    report =
      Printf.sprintf "soak: %d runs, %d failures; %d of %d crash points unreached: %s"
        (List.length runs) (List.length fails) (List.length unreached)
        (List.length Fault.all_points)
        (String.concat ", " unreached);
    json = Soak.matrix_to_json ~seed runs;
  }

(* ---- monitor-kill: leader replica killed mid-recovery ---- *)

let monitor_kill ~seed =
  let f = Soak.monitor_kill ~seed () in
  {
    pass =
      f.Soak.leader_crashed && f.Soak.follower_finished
      && f.Soak.live_segments_left = 0 && f.Soak.fo_clean;
    report =
      Printf.sprintf
        "monitor-kill failover: seed=%-6d steps=%-5d hung=cid%d \
         leader-crashed=%b follower-finished=%b dev%d-live-left=%d %s"
        f.Soak.fo_seed f.Soak.fo_steps f.Soak.hung_cid f.Soak.leader_crashed
        f.Soak.follower_finished f.Soak.fo_degraded f.Soak.live_segments_left
        (if f.Soak.fo_clean then "clean" else "** DIRTY **");
    json =
      Printf.sprintf
        "{\"seed\":%d,\"steps\":%d,\"hung_cid\":%d,\"leader_crashed\":%b,\
         \"follower_finished\":%b,\"degraded_device\":%d,\
         \"live_segments_left\":%d,\"clean\":%b}"
        f.Soak.fo_seed f.Soak.fo_steps f.Soak.hung_cid f.Soak.leader_crashed
        f.Soak.follower_finished f.Soak.fo_degraded f.Soak.live_segments_left
        f.Soak.fo_clean;
  }

(* ---- writer-kill: KV writer killed mid-quiesce, records adopted ---- *)

(* A writer COW-churns a small store, a reader pins a hazard era mid-walk,
   and the writer is killed at the first free inside its reclamation pass —
   mid-quiesce, with its persistent parked-record registry part-cleared.
   The monitor condemns and recovers it (journaling the registry), a
   successor takes over the partition and adopts the journaled records
   with their retire stamps intact. It passes when no era-pinned record
   was freed, adoption moved every journaled record, and the arena is
   fsck-clean with counts matching reachability. *)
let writer_kill ~seed =
  let steps = 200 in
  let cfg = { Config.small with Config.backend = striped4; lease_ttl = 2 } in
  let arena = Shm.create ~cfg () in
  let w = Shm.join arena () in
  let r = Shm.join arena () in
  let s = Shm.join arena () in
  let store, hw = Cxl_kv.create w ~buckets:4 ~partitions:1 ~value_words:2 in
  if not (Cxl_kv.claim_partition hw 0) then
    failwith "writer-kill: claim failed";
  let hr = Cxl_kv.open_store r store in
  let hs = Cxl_kv.open_store s store in
  let rng = Random.State.make [| 0x61646f70; seed |] in
  let keys = 12 in
  for k = 0 to keys - 1 do
    Cxl_kv.put hw ~key:k ~value:(1000 + k)
  done;
  (* Steady churn: COW updates park displaced records, periodic quiesce
     recycles them, reader traffic announces and retires eras. *)
  for i = 1 to steps do
    let k = Random.State.int rng keys in
    (match Random.State.int rng 3 with
    | 0 | 1 -> Cxl_kv.put_cow hw ~key:k ~value:i
    | _ -> ignore (Cxl_kv.get hr ~key:k));
    if i mod 32 = 0 then Cxl_kv.quiesce hw;
    Client.heartbeat w;
    Client.heartbeat r;
    Client.heartbeat s
  done;
  Cxl_kv.quiesce hw;
  (* Batch A parks before the reader pins (reclaimable), batch B after
     (era-pinned): the quiesce below starts freeing batch A and dies at
     the first free, leaving the registry holding the rest. *)
  for k = 0 to (keys / 2) - 1 do
    Cxl_kv.put_cow hw ~key:k ~value:(3000 + k)
  done;
  Hazard.enter r;
  for k = keys / 2 to keys - 1 do
    Cxl_kv.put_cow hw ~key:k ~value:(4000 + k)
  done;
  (* Snapshot the writer's persistent registry: (obj, stamp) per slot. *)
  let mem = Shm.mem arena in
  let lay = Shm.layout arena in
  let peek = Mem.unsafe_peek mem in
  let parked = ref [] in
  for k = 0 to Layout.park_capacity lay - 1 do
    let rr = peek (Layout.park_slot_rr lay w.Ctx.cid k) in
    if rr <> 0 then
      parked :=
        (peek (Rootref.pptr_slot rr), peek (Layout.park_slot_stamp lay w.Ctx.cid k))
        :: !parked
  done;
  let svc = Shm.service_ctx arena in
  let safe = Hazard.min_announced svc in
  let pinned = List.filter (fun (_, stamp) -> stamp >= safe) !parked in
  (* Kill the writer at the first free inside its reclamation pass. *)
  w.Ctx.fault <- Fault.at Fault.Release_mid_reclaim ~nth:1;
  let writer_crashed =
    match Cxl_kv.quiesce hw with
    | () -> false
    | exception Fault.Crashed _ -> true
  in
  w.Ctx.fault <- Fault.none;
  (* The monitor condemns the silent writer and recovers it: recovery
     moves the registry into the arena adoption journal. *)
  let mon = Monitor.create ~mem ~lay () in
  let journaled = ref 0 in
  let recovered = ref false in
  let guard = ref 0 in
  let budget = 10 * (cfg.Config.lease_ttl + 2) in
  while (not !recovered) && !guard < budget do
    Client.heartbeat r;
    Client.heartbeat s;
    ignore (Monitor.check_once mon);
    List.iter
      (fun (cid, rep) ->
        if cid = w.Ctx.cid then begin
          recovered := true;
          journaled := rep.Recovery.parked_journaled
        end)
      (Monitor.recover_suspects mon);
    incr guard
  done;
  (* Successor failover: steal the partition, adopt the journaled parked
     records, stamps intact. *)
  ignore (Cxl_kv.takeover_partition hs 0);
  let adopted = Cxl_kv.adopt_recovered hs in
  (* No era-pinned record may have been freed by the crash recovery. *)
  let pinned_freed =
    List.fold_left
      (fun acc (obj, _) -> if peek obj = 0 then acc + 1 else acc)
      0 pinned
  in
  (* Wind down: unpin, let the successor reclaim everything, and judge. *)
  Hazard.exit r;
  Cxl_kv.quiesce hs;
  Cxl_kv.close hr;
  Cxl_kv.close hs;
  Shm.leave r;
  Shm.leave s;
  ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
  let clean = Fsck.clean (Fsck.repair svc) in
  let pinned = List.length pinned in
  {
    pass =
      writer_crashed && !journaled > 0 && adopted = !journaled
      && pinned_freed = 0 && clean;
    report =
      Printf.sprintf
        "writer-kill adoption: seed=%-6d steps=%-5d writer=cid%d crashed=%b \
         journaled=%d adopted=%d pinned=%d pinned-freed=%d %s"
        seed steps w.Ctx.cid writer_crashed !journaled adopted pinned
        pinned_freed
        (if clean then "clean" else "** DIRTY **");
    json =
      Printf.sprintf
        "{\"seed\":%d,\"steps\":%d,\"writer_cid\":%d,\"crashed\":%b,\
         \"journaled\":%d,\"adopted\":%d,\"pinned\":%d,\"pinned_freed\":%d,\
         \"clean\":%b}"
        seed steps w.Ctx.cid writer_crashed !journaled adopted pinned
        pinned_freed clean;
  }

(* ---- rpc-kill-server / rpc-kill-client: endpoint death mid-call ---- *)

(* A healthy round trip, then one endpoint killed under an in-flight call.
   A client blocked in [finish] must get [Peer_failed] (never hang); a dead
   client's sub-heap must come back to the arena through the server's
   revocation; and the arena must audit clean afterwards. *)
let rpc_kill ~server =
  let module Rpc = Cxlshm_rpc.Cxl_rpc in
  let module Message = Cxlshm_rpc.Message in
  let arena = Shm.create ~cfg:Config.small () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let srv = Rpc.accept s ~client_cid:c.Ctx.cid ~capacity:4 in
  let client = Rpc.connect c ~server_cid:s.Ctx.cid ~capacity:4 in
  Printf.printf "channel sub-heap: segments %s\n"
    (String.concat ","
       (List.map string_of_int (Rpc.channel_segments client)));
  let handler ~func ~args ~output =
    let v = match args with a :: _ -> Message.read_word a 0 | [] -> 0 in
    Message.write_word output 0 (v + func)
  in
  let arg = Rpc.alloc_arg client ~size_bytes:8 () in
  Cxl_ref.write_word arg 0 41;
  let p = Rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
  while not (Rpc.serve_one srv ~handler) do () done;
  let out = Rpc.finish p in
  let healthy = Cxl_ref.read_word out 0 = 42 in
  Cxl_ref.drop out;
  Printf.printf "healthy call: %s\n" (if healthy then "ok" else "WRONG OUTPUT");
  let svc = Shm.service_ctx arena in
  let kill ctx =
    Client.declare_failed svc ~cid:ctx.Ctx.cid;
    let rep = Shm.recover arena ~failed_cid:ctx.Ctx.cid in
    Format.printf "recovery of client %d: %a@." ctx.Ctx.cid
      Recovery.pp_report rep
  in
  let survived =
    if server then begin
      (* fire a call the server will never answer, then kill it: the
         client's bounded wait must surface Peer_failed, not spin *)
      let p = Rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
      kill s;
      let bounded =
        match Rpc.finish p with
        | _ ->
            Printf.printf "kill-server: finish returned?!\n";
            false
        | exception Rpc.Peer_failed _ ->
            Printf.printf "kill-server: finish raised Peer_failed (bounded)\n";
            Rpc.discard p;
            true
      in
      Cxl_ref.drop arg;
      Rpc.close_client client;
      bounded
    end
    else begin
      (* a call in flight when the client dies: recovery parks the
         sub-heap (orphaned, never recycled under the live server); the
         server's teardown reaps the message and returns the segments *)
      let _p = Rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
      kill c;
      Rpc.close_server srv;
      let all_free =
        List.for_all
          (fun seg -> Segment.owner svc seg = None)
          (Rpc.channel_segments client)
      in
      Printf.printf "kill-client: sub-heap %s\n"
        (if all_free then "revoked and returned" else "NOT RETURNED");
      all_free
    end
  in
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  let clean = Validate.is_clean v in
  {
    pass = healthy && survived && clean;
    report = Format.asprintf "validation: %a" Validate.pp v;
    json =
      Printf.sprintf
        "{\"killed\":\"%s\",\"healthy_call\":%b,\"survivor_ok\":%b,\"clean\":%b}"
        (if server then "server" else "client")
        healthy survived clean;
  }

(* ---- evacuate: drain live data off a degraded device ---- *)

(* Populate a 4-device striped arena, mark device 0 degraded, and drain
   it: owners relocate their RootRef blocks, the monitor-side sweep moves
   the data. Passes when zero live segments remain on the device and every
   payload survived the move. *)
let evacuate ~seed =
  let objects = 60 and devices = 4 and degrade = 0 in
  let arena = Shm.create ~cfg:{ Config.small with Config.backend = striped4 } () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let rng = Random.State.make [| 0x65766163; seed |] in
  let held = ref [] in
  for i = 1 to objects do
    let c = if i mod 2 = 0 then a else b in
    let r =
      Shm.cxl_malloc c
        ~size_bytes:(8 + Random.State.int rng 48)
        ~emb_cnt:(Random.State.int rng 2)
        ()
    in
    Cxl_ref.write_word r (Cxl_ref.emb_cnt r) i;
    (match !held with
    | (p, _) :: _
      when Cxl_ref.ctx p == c && Cxl_ref.emb_cnt p > 0
           && Cxl_ref.get_emb p 0 = 0 ->
        Cxl_ref.set_emb p 0 r
    | _ -> ());
    held := (r, i) :: !held
  done;
  let before = List.length (Evacuate.live_segments_on svc ~dev:degrade) in
  Printf.printf "%d objects over %d devices; device %d holds %d live segment(s)\n"
    objects devices degrade before;
  Ctx.mark_degraded svc degrade;
  (* owners move their own RootRef blocks, then the monitor-side sweep
     takes the data *)
  let patch c rep =
    held :=
      List.map
        (fun (r, i) ->
          if Cxl_ref.ctx r == c then
            match
              List.assoc_opt (Cxl_ref.rootref r) rep.Evacuate.remapped
            with
            | Some rr2 -> (Cxl_ref.of_rootref c rr2, i)
            | None -> (r, i)
          else (r, i))
        !held
  in
  List.iter
    (fun c ->
      let rep = Evacuate.relocate_own c in
      Format.printf "relocate cid %d: %a@." c.Ctx.cid Evacuate.pp_report rep;
      patch c rep)
    [ a; b ];
  let rep = Shm.evacuate arena in
  Format.printf "sweep: %a@." Evacuate.pp_report rep;
  let left = List.length (Evacuate.live_segments_on svc ~dev:degrade) in
  Printf.printf "device %d live segments after drain: %d\n" degrade left;
  let intact =
    List.for_all (fun (r, i) -> Cxl_ref.read_word r (Cxl_ref.emb_cnt r) = i) !held
  in
  Printf.printf "payloads %s\n" (if intact then "intact" else "CORRUPTED");
  List.iter (fun (r, _) -> Cxl_ref.drop r) !held;
  Shm.leave a;
  Shm.leave b;
  Ctx.clear_degraded svc;
  ignore (Shm.scan_leaking arena);
  let clean = Validate.is_clean (Shm.validate arena) in
  {
    pass = left = 0 && intact && clean;
    report = Printf.sprintf "validation %s" (if clean then "clean" else "DIRTY");
    json =
      Printf.sprintf
        "{\"seed\":%d,\"objects\":%d,\"devices\":%d,\"degraded_device\":%d,\
         \"live_segments_before\":%d,\"live_segments_left\":%d,\"intact\":%b,\
         \"clean\":%b}"
        seed objects devices degrade before left intact clean;
  }

(* ---- monitor-race: live replicas racing to reap a silent client ---- *)

let monitor_race () =
  let replicas = 2 and interval = 0.01 and deadline_s = 5.0 in
  let arena = Shm.create ~cfg:{ Config.small with Config.backend = striped4 } () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let _graph = List.init 5 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  Printf.printf "clients %d (going silent) and %d (heartbeating), %d replica(s)\n"
    a.Ctx.cid b.Ctx.cid replicas;
  let mons = List.init replicas (fun i -> Shm.monitor arena ~id:i ()) in
  let handles = List.map (fun m -> Monitor.run_in_domain m ~interval) mons in
  let svc = Shm.service_ctx arena in
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec wait () =
    if Client.status svc ~cid:a.Ctx.cid = Client.Slot_free then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Client.heartbeat b;
      Unix.sleepf (interval /. 2.);
      wait ()
    end
  in
  let recovered = wait () in
  List.iter2 (fun h m -> ignore (Monitor.stop_and_join h m)) handles mons;
  List.iter
    (fun m ->
      Printf.printf "replica %d: leader=%b death-dumps=%d loop-errors=%d\n"
        (Monitor.id m) (Monitor.is_leader m)
        (List.length (Monitor.death_dumps m))
        (Monitor.error_count m))
    mons;
  Shm.leave b;
  ignore (Shm.scan_leaking arena);
  let clean = Validate.is_clean (Shm.validate arena) in
  {
    pass = recovered && clean;
    report =
      Printf.sprintf "silent client %s; validation %s"
        (if recovered then "recovered" else "NOT recovered")
        (if clean then "clean" else "DIRTY");
    json =
      Printf.sprintf "{\"replicas\":%d,\"recovered\":%b,\"clean\":%b}" replicas
        recovered clean;
  }

(* ---- registry ---- *)

let all () =
  [
    { name = "soak"; seed = 1; run = soak;
      doc = "every crash point x device-fault schedule x backend, recovered and fsck'd" };
    { name = "monitor-kill"; seed = 7; run = monitor_kill;
      doc = "leader monitor killed mid-recovery; the follower finishes and drains a device" };
    { name = "writer-kill"; seed = 7; run = writer_kill;
      doc = "KV writer killed mid-quiesce; a successor adopts its parked records" };
    { name = "rpc-kill-server"; seed = 0; run = (fun ~seed:_ -> rpc_kill ~server:true);
      doc = "RPC server killed mid-call; the client's finish raises Peer_failed" };
    { name = "rpc-kill-client"; seed = 0; run = (fun ~seed:_ -> rpc_kill ~server:false);
      doc = "RPC client killed mid-call; the server revokes the channel sub-heap" };
    { name = "evacuate"; seed = 7; run = evacuate;
      doc = "device 0 of 4 degraded and drained to zero live segments" };
    { name = "monitor-race"; seed = 0; run = (fun ~seed:_ -> monitor_race ());
      doc = "two live monitor replicas race to reap a silent client" };
  ]

let find name =
  match List.find_opt (fun d -> d.name = name) (all ()) with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "unknown drill %s (have: %s)" name
           (String.concat ", " (List.map (fun d -> d.name) (all ()))))

let to_json results =
  Printf.sprintf "{\"drills\":[\n%s\n]}"
    (String.concat ",\n"
       (List.map
          (fun (d, seed, r) ->
            Printf.sprintf
              "{\"name\":%s,\"seed\":%d,\"pass\":%b,\"report\":%s,\"record\":%s}"
              (Soak.json_string d.name) seed r.pass (Soak.json_string r.report)
              r.json)
          results))
