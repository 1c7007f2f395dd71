(* The KV workloads: an open-loop Poisson stream over Cxl_kv, driven in
   lockstep on the Table-1 modeled clock. Each client is one simulated
   core with its own busy horizon; an op starts at max(arrival, horizon)
   and its latency is completion - arrival, so queueing counts. Writers
   own disjoint partitions, readers are picked round-robin. Under churn,
   heartbeats and monitor passes run on a fixed modeled cadence and a
   scripted series of incidents kills, retires and adds clients. *)

open Cxlshm
module Kv = Cxlshm_kv.Cxl_kv
module M = Meter
module I = Inputs

type cfg = {
  keys : int;
  ops : int;
  rate_mops : float;
  writers : int;
  readers : int;
  theta : float option;  (** zipf skew; [None] = uniform keys *)
  mix : I.mix;
  crashes : int;  (** crash-writer incidents; 0 = no churn *)
}

(* 95% reads over 8,000 zipf keys: records and index (~0.6 MiB) fit the
   1 MiB per-client line filter, so the index walk and the cache-hit path
   dominate and allocation and recovery barely run. *)
let read_hot =
  {
    keys = 8_000;
    ops = 200_000;
    rate_mops = 2.0;
    writers = 4;
    readers = 2;
    theta = Some 0.99;
    mix = { I.read = 0.95; update = 0.05; insert = 0.0 };
    crashes = 0;
  }

(* 70% writes over 200,000 uniform keys (~13 MiB, 12x the line filter)
   with repeated churn: every COW update frees a displaced version, so
   allocation, freeing, era refcounting, reclamation, recovery, adoption
   and handoff do most of the work. *)
let write_churn =
  {
    keys = 200_000;
    ops = 120_000;
    rate_mops = 1.0;
    writers = 4;
    readers = 2;
    theta = None;
    mix = { I.read = 0.30; update = 0.50; insert = 0.10 };
    crashes = 20;
  }

let value_words = 2

(* writer ops between reclamation passes *)
let quiesce_every = 32

(* heartbeat and monitor cadence under churn, modeled ns *)
let tick_ns = 20_000.0

(* Segments are sized to about 1% of the expected in-use data (a power of
   two, four pages each), so one segment stays under 2% of the in-use
   total; the index is one huge object spanning several. *)
let geometry cfg ~inserts =
  let pages_per_segment = 4 in
  let record_class = 8 in
  let buckets = max 64 cfg.keys in
  let data = ((cfg.keys + inserts) * record_class * 16 / 10) + buckets in
  let rec pow2 w = if 2 * w > data / 100 then w else pow2 (2 * w) in
  let seg_words = pow2 256 in
  let num_segments = (data / seg_words) + 160 in
  let shm_cfg =
    {
      Config.default with
      Config.max_clients = cfg.writers + cfg.readers + 8;
      num_segments;
      pages_per_segment;
      page_words = seg_words / pages_per_segment;
      queue_slots = 64;
      park_slots = 4096;
      adopt_slots = 4096;
    }
  in
  (shm_cfg, buckets, seg_words)

(* The first 5% of the run warms the clients' line filters and allocator
   state; it runs and is checked, but no latency metric counts it. *)
let warmup_frac = 0.05

type status = Alive | Crashed | Left

type writer = {
  widx : int;
  mutable w : M.ep;
  mutable wh : Kv.handle;
  mutable wst : status;
  mutable wops : int;
  pending : int Queue.t;  (** op indices queued behind a dead writer *)
}

type reader = { mutable r : M.ep; mutable rh : Kv.handle; mutable rst : status }

type kind = Crash_writer | Crash_reader | Leave_writer | Join_reader

type incident = {
  ikind : kind;
  start : float;  (** arrival at which it fired *)
  mutable crash : float;  (** moment the victim died *)
  mutable detect : float;  (** condemned by the monitor *)
  mutable recovered : float;  (** recovery finished *)
  mutable stop : float;
      (** the client that took over has worked off the backlog: the first
          arrival that finds it idle; nan while open *)
}

(* The churn script: [crashes] crash-writer incidents with one
   crash-reader, one leave-writer and two join-reader events among them,
   spread evenly over the run with seeded jitter. *)
let churn_script rng cfg =
  if cfg.crashes = 0 then [||]
  else begin
    let n = cfg.crashes + 4 in
    let horizon = float_of_int cfg.ops *. 1000.0 /. cfg.rate_mops in
    let warm = warmup_frac *. horizon in
    Array.init n (fun j ->
        let kind =
          if j = n / 5 then Crash_reader
          else if j = 2 * n / 5 || j = 4 * n / 5 then Join_reader
          else if j = n / 2 then Leave_writer
          else Crash_writer
        in
        let jitter = Random.State.float rng 0.2 -. 0.1 in
        ( warm
          +. ((horizon -. warm) *. (float_of_int j +. 0.5 +. jitter)
             /. float_of_int n),
          kind ))
  end

(* [full] repetitions also run the oracle's read-back checks and compute
   the replay and per-layer metrics; the others only time the run and
   recompute the cheap modeled figures, which must match. *)
let run ~seed ~tracing ~full cfg =
  let rng = Random.State.make [| seed |] in
  let inp =
    I.kv rng ~keys:cfg.keys ~ops:cfg.ops ~rate_mops:cfg.rate_mops
      ~theta:cfg.theta ~mix:cfg.mix
  in
  let inserts =
    Array.fold_left (fun n k -> if k = I.Insert then n + 1 else n) 0 inp.I.kind
  in
  let script = churn_script rng cfg in
  (* the crash triggers: one injected COW update per crash-writer *)
  let ninj =
    Array.fold_left (fun n (_, k) -> if k = Crash_writer then n + 1 else n) 0 script
  in
  let inj_key = Array.init ninj (fun _ -> Random.State.int rng cfg.keys) in
  let inj_val = Array.init ninj (fun _ -> I.value rng) in
  let total = cfg.ops + ninj in
  let o = Work.oracle () in

  (* -- set-up: arena, clients, preload --------------------------- *)
  let w_setup = M.wall () in
  let shm_cfg, buckets, seg_words = geometry cfg ~inserts in
  let arena = Shm.create ~cfg:shm_cfg () in
  let model = Cxlshm_shmem.Mem.cost_model (Shm.mem arena) in
  let creator = Shm.join arena () in
  let store, h0 =
    Kv.create creator ~buckets ~partitions:cfg.writers ~value_words
  in
  let wctx =
    Array.init cfg.writers (fun i ->
        let ctx = if i = 0 then creator else Shm.join arena () in
        let h = if i = 0 then h0 else Kv.open_store ctx store in
        if not (Kv.claim_partition h i) then failwith "partition claim failed";
        (ctx, h))
  in
  let part_owner = Array.init cfg.writers Fun.id in
  Array.iteri
    (fun k v ->
      let _, h = wctx.(Kv.partition_of_key store k) in
      Kv.put h ~key:k ~value:v)
    inp.I.preload;
  Array.iter (fun (_, h) -> Kv.quiesce h) wctx;
  let rctx =
    Array.init cfg.readers (fun _ ->
        let ctx = Shm.join arena () in
        (ctx, Kv.open_store ctx store))
  in
  (* The oracle reads through a client of its own: its traffic lands on
     its own Stats, never on a measured client's clock. *)
  let octx = Shm.join arena () in
  let oh = Kv.open_store octx store in
  let mon = Shm.monitor arena () in
  let setup_s = M.wall () -. w_setup in

  (* -- measured phase ---------------------------------------------- *)
  let m = M.create ~model ~tracing in
  let writers =
    Array.mapi
      (fun i (ctx, h) ->
        { widx = i; w = M.register m ctx; wh = h; wst = Alive; wops = 0;
          pending = Queue.create () })
      wctx
  in
  let readers =
    ref
      (Array.map
         (fun (ctx, h) -> { r = M.register m ctx; rh = h; rst = Alive })
         rctx)
  in
  let mep = M.register m (Monitor.ctx mon) in

  (* shadow map of acknowledged writes; [absent] = never written *)
  let absent = min_int in
  let shadow = Array.make (cfg.keys + inserts) absent in
  Array.blit inp.I.preload 0 shadow 0 cfg.keys;
  let touched = Array.make (cfg.keys + inserts) false in
  (* key -> value of a write whose writer died mid-op: either may show *)
  let uncertain : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let expect key got =
    let want = shadow.(key) in
    let ok =
      match got with
      | None -> want = absent
      | Some v ->
          v = want
          || (match Hashtbl.find_opt uncertain key with
             | Some alt -> v = alt
             | None -> false)
    in
    if not ok then
      Work.fail o "key %d: read %s, acknowledged %s" key
        (match got with None -> "none" | Some v -> string_of_int v)
        (if want = absent then "none" else string_of_int want)
  in

  (* per-op record, filled at completion *)
  let arr = Array.make total 0.0 and lat = Array.make total nan in
  let wait = Array.make total 0.0 and svc = Array.make total 0.0 in
  let cls = Array.make total 0 and res = Array.make total 0 in
  let op_key = Array.make total 0 and op_arg = Array.make total 0 in
  let op_kind = Array.make total I.Read in
  Array.blit inp.I.arrival 0 arr 0 cfg.ops;
  Array.blit inp.I.key 0 op_key 0 cfg.ops;
  Array.blit inp.I.arg 0 op_arg 0 cfg.ops;
  Array.blit inp.I.kind 0 op_kind 0 cfg.ops;
  let completed = ref 0 in
  let cls_of = function I.Read -> 0 | Update -> 1 | Insert -> 2 | Rmw -> 3 in
  let finish_op i ep ~start ~rid ~w0 ~resource =
    let a = arr.(i) in
    lat.(i) <- ep.M.busy -. a;
    wait.(i) <- start -. a;
    svc.(i) <- ep.M.busy -. start;
    cls.(i) <- cls_of op_kind.(i);
    res.(i) <- resource;
    incr completed;
    M.add_span m ~id:rid ~parent:0 ~req:(i + 1)
      ("op." ^ I.kind_name op_kind.(i))
      ~t0:a ~t1:ep.M.busy ~w0 ~w1:(M.now m)
  in
  let root () = if tracing then M.fresh_id m else 0 in

  let incidents = ref [] in
  (* open incidents waiting for their successor's backlog to clear *)
  let draining : (M.ep * incident) list ref = ref [] in
  let close_drained a =
    draining :=
      List.filter
        (fun (ep, inc) ->
          if a >= ep.M.busy then begin
            inc.stop <- ep.M.busy;
            false
          end
          else true)
        !draining
  in
  (* cid -> (role, incident) of a crashed, not yet recovered client *)
  let outstanding : (int, [ `W of int | `R of int ] * incident) Hashtbl.t =
    Hashtbl.create 8
  in
  let adopted = ref 0 in

  let exec_read rd i ~resource =
    let ep = rd.r in
    let start = Float.max arr.(i) ep.M.busy in
    ep.M.busy <- start;
    let rid = root () and w0 = M.now m in
    let key = op_key.(i) in
    let v = M.time m ep ~parent:rid ~req:(i + 1) "kv.get" (fun () ->
        Kv.get rd.rh ~key)
    in
    expect key v;
    finish_op i ep ~start ~rid ~w0 ~resource
  in
  let rec exec_write w i =
    let ep = w.w in
    let start = Float.max arr.(i) ep.M.busy in
    ep.M.busy <- start;
    let rid = root () and w0 = M.now m in
    let req = i + 1 in
    let key = op_key.(i) and arg = op_arg.(i) in
    w.wops <- w.wops + 1;
    match
      if w.wops mod quiesce_every = 0 then
        M.time m ep ~parent:rid ~req "kv.quiesce" (fun () -> Kv.quiesce w.wh);
      match op_kind.(i) with
      | I.Update ->
          M.time m ep ~parent:rid ~req "kv.put_cow" (fun () ->
              Kv.put_cow w.wh ~key ~value:arg);
          shadow.(key) <- arg
      | I.Insert ->
          M.time m ep ~parent:rid ~req "kv.put" (fun () ->
              Kv.put w.wh ~key ~value:arg);
          shadow.(key) <- arg
      | I.Rmw ->
          let old =
            M.time m ep ~parent:rid ~req "kv.rmw" (fun () ->
                Kv.rmw w.wh ~key ~delta:arg)
          in
          expect key old;
          shadow.(key) <-
            (match old with Some v -> v + arg | None -> arg)
      | I.Read -> invalid_arg "Kv_work: reads are served by readers"
    with
    | () ->
        Hashtbl.remove uncertain key;
        touched.(key) <- true;
        finish_op i ep ~start ~rid ~w0 ~resource:w.widx
    | exception Fault.Crashed _ -> on_crash w i
  and on_crash w i =
    (* the victim died inside the op: the write may or may not have
       committed, so both values are legal until the successor re-runs
       it at the head of the partition's backlog *)
    let key = op_key.(i) in
    Hashtbl.replace uncertain key op_arg.(i);
    w.wst <- Crashed;
    Queue.push i w.pending;
    let inc =
      { ikind = Crash_writer; start = arr.(i); crash = w.w.M.busy;
        detect = nan; recovered = nan; stop = nan }
    in
    incidents := inc :: !incidents;
    Hashtbl.replace outstanding w.w.M.ctx.Ctx.cid (`W w.widx, inc)
  in

  let reader_rr = ref 0 in
  let pick_reader () =
    let a = !readers in
    let n = Array.length a in
    let rec go k =
      if k >= n then None
      else
        let rd = a.((!reader_rr + k) mod n) in
        if rd.rst = Alive then begin
          reader_rr := (!reader_rr + k + 1) mod n;
          Some rd
        end
        else go (k + 1)
    in
    go 0
  in
  let reader_index rd =
    let a = !readers in
    let rec find k = if a.(k) == rd then k else find (k + 1) in
    find 0
  in
  let dispatch i =
    match op_kind.(i) with
    | I.Read -> (
        match pick_reader () with
        | Some rd -> exec_read rd i ~resource:(cfg.writers + reader_index rd)
        | None -> Work.fail o "op %d: no live reader" i)
    | _ -> (
        let w = writers.(part_owner.(Kv.partition_of_key store op_key.(i))) in
        match w.wst with
        | Alive -> exec_write w i
        | Crashed -> Queue.push i w.pending
        | Left -> Work.fail o "op %d: partition owned by a departed writer" i)
  in

  (* every acknowledged write in the dead writer's partitions must be
     readable once its backlog has drained *)
  let oracle_s = ref 0.0 in
  let check_partitions parts =
    if full then begin
      let w0 = M.wall () in
      Array.iteri
        (fun key t ->
          if t && List.mem (Kv.partition_of_key store key) parts then
            expect key (Kv.get oh ~key))
        touched;
      oracle_s := !oracle_s +. (M.wall () -. w0)
    end
  in

  let heartbeat t =
    let beat ep =
      ep.M.busy <- Float.max t ep.M.busy;
      M.time m ep "client.heartbeat" (fun () -> Client.heartbeat ep.M.ctx)
    in
    Array.iter (fun w -> if w.wst = Alive then beat w.w) writers;
    Array.iter (fun rd -> if rd.rst = Alive then beat rd.r) !readers;
    Client.heartbeat octx
  in
  let monitor_pass t =
    mep.M.busy <- Float.max t mep.M.busy;
    let rid = root () and w0 = M.now m in
    let t0 = mep.M.busy in
    let condemned =
      M.time m mep ~parent:rid "monitor.check_once" (fun () ->
          Monitor.check_once mon)
    in
    List.iter
      (fun cid ->
        match Hashtbl.find_opt outstanding cid with
        | Some (_, inc) when Float.is_nan inc.detect -> inc.detect <- mep.M.busy
        | _ -> ())
      condemned;
    let recovered =
      M.time m mep ~parent:rid "monitor.recover_suspects" (fun () ->
          Monitor.recover_suspects mon)
    in
    List.iter
      (fun (cid, _) ->
        match Hashtbl.find_opt outstanding cid with
        | None -> Work.fail o "monitor recovered live client %d" cid
        | Some (role, inc) -> (
            Hashtbl.remove outstanding cid;
            inc.recovered <- mep.M.busy;
            if Float.is_nan inc.detect then inc.detect <- mep.M.busy;
            let ep = M.join m arena ~parent:rid ~at:mep.M.busy () in
            let h =
              M.time m ep ~parent:rid "kv.open_store" (fun () ->
                  Kv.open_store ep.M.ctx store)
            in
            match role with
            | `W idx ->
                let w = writers.(idx) in
                let parts = ref [] in
                Array.iteri
                  (fun p owner ->
                    if owner = idx then begin
                      parts := p :: !parts;
                      if
                        not
                          (M.time m ep ~parent:rid "kv.takeover_partition"
                             (fun () -> Kv.takeover_partition h p))
                      then Work.fail o "takeover of partition %d failed" p
                    end)
                  part_owner;
                adopted :=
                  !adopted
                  + M.time m ep ~parent:rid "kv.adopt_recovered" (fun () ->
                        Kv.adopt_recovered h);
                w.w <- ep;
                w.wh <- h;
                w.wst <- Alive;
                while not (Queue.is_empty w.pending) do
                  exec_write w (Queue.pop w.pending)
                done;
                draining := (ep, inc) :: !draining;
                check_partitions !parts
            | `R idx ->
                let rd = !readers.(idx) in
                rd.r <- ep;
                rd.rh <- h;
                rd.rst <- Alive;
                inc.stop <- ep.M.busy))
      recovered;
    M.add_span m ~id:rid ~parent:0 ~req:0 "monitor.pass" ~t0 ~t1:mep.M.busy
      ~w0 ~w1:(M.now m)
  in

  let alive_writers () =
    Array.to_list writers |> List.filter (fun w -> w.wst = Alive)
  in
  let crash_no = ref 0 in
  let fire kind a =
    match kind with
    | Crash_writer -> (
        match alive_writers () with
        | [] -> Work.fail o "no live writer to crash"
        | ws ->
            let j = !crash_no in
            let w = List.nth ws (j mod List.length ws) in
            incr crash_no;
            (* the trigger: a COW update into one of the victim's
               partitions, armed to die at its first crash point *)
            let i = cfg.ops + j in
            let p =
              let rec find p = if part_owner.(p) = w.widx then p else find (p + 1) in
              find 0
            in
            let key =
              let k = inj_key.(j) - (inj_key.(j) mod cfg.writers) + p in
              if k >= cfg.keys then k - cfg.writers else k
            in
            arr.(i) <- a;
            op_key.(i) <- key;
            op_arg.(i) <- inj_val.(j);
            op_kind.(i) <- I.Update;
            w.w.M.ctx.Ctx.fault <- Fault.random ~seed:(seed + (31 * j)) ~probability:1.0;
            exec_write w i;
            w.w.M.ctx.Ctx.fault <- Fault.none;
            if w.wst <> Crashed then Work.fail o "crash trigger %d did not crash" j)
    | Crash_reader -> (
        match pick_reader () with
        | None -> Work.fail o "no live reader to crash"
        | Some rd ->
            (* dies mid-traversal: its era announcement stays set and pins
               reclamation until the monitor condemns it *)
            rd.r.M.busy <- Float.max a rd.r.M.busy;
            M.time m rd.r "hazard.enter" (fun () -> Hazard.enter rd.r.M.ctx);
            rd.rst <- Crashed;
            let inc =
              { ikind = Crash_reader; start = a; crash = rd.r.M.busy;
                detect = nan; recovered = nan; stop = nan }
            in
            incidents := inc :: !incidents;
            Hashtbl.replace outstanding rd.r.M.ctx.Ctx.cid
              (`R (reader_index rd), inc))
    | Leave_writer -> (
        match List.rev (alive_writers ()) with
        | d :: s :: _ ->
            (* planned departure: ship parked records to the successor
               over a transfer queue, move ownership, leave cleanly *)
            let rid = root () and w0 = M.now m in
            d.w.M.busy <- Float.max a d.w.M.busy;
            let parked =
              M.time m d.w ~parent:rid "kv.deferred_count" (fun () ->
                  Kv.deferred_count d.wh)
            in
            if parked > 0 then begin
              let q =
                M.time m d.w ~parent:rid "transfer.connect" (fun () ->
                    Transfer.connect d.w.M.ctx ~receiver:s.w.M.ctx.Ctx.cid
                      ~capacity:(parked + 1))
              in
              let sent =
                M.time m d.w ~parent:rid "kv.handoff_deferred" (fun () ->
                    Kv.handoff_deferred d.wh q)
              in
              s.w.M.busy <- Float.max s.w.M.busy d.w.M.busy;
              (match
                 M.time m s.w ~parent:rid "transfer.open_from" (fun () ->
                     Transfer.open_from s.w.M.ctx ~sender:d.w.M.ctx.Ctx.cid)
               with
              | Some qr ->
                  adopted :=
                    !adopted
                    + M.time m s.w ~parent:rid "kv.adopt_deferred" (fun () ->
                          Kv.adopt_deferred s.wh qr ~max:sent);
                  M.time m s.w ~parent:rid "transfer.close" (fun () ->
                      Transfer.close qr)
              | None -> Work.fail o "handoff queue not found");
              M.time m d.w ~parent:rid "transfer.close" (fun () ->
                  Transfer.close q)
            end;
            s.w.M.busy <- Float.max s.w.M.busy d.w.M.busy;
            Array.iteri
              (fun p owner ->
                if owner = d.widx then begin
                  if
                    not
                      (M.time m s.w ~parent:rid "kv.takeover_partition"
                         (fun () -> Kv.takeover_partition s.wh p))
                  then Work.fail o "takeover of partition %d failed" p;
                  part_owner.(p) <- s.widx
                end)
              part_owner;
            M.time m d.w ~parent:rid "kv.close" (fun () -> Kv.close d.wh);
            M.time m d.w ~parent:rid "shm.leave" (fun () -> Shm.leave d.w.M.ctx);
            d.wst <- Left;
            let inc =
              { ikind = Leave_writer; start = a; crash = a; detect = a;
                recovered = a; stop = nan }
            in
            incidents := inc :: !incidents;
            draining := (s.w, inc) :: !draining;
            M.add_span m ~id:rid ~parent:0 ~req:0 "churn.leave" ~t0:a
              ~t1:s.w.M.busy ~w0 ~w1:(M.now m)
        | _ -> Work.fail o "leave-writer needs two live writers")
    | Join_reader ->
        let ep = M.join m arena ~at:a () in
        let h =
          M.time m ep "kv.open_store" (fun () -> Kv.open_store ep.M.ctx store)
        in
        readers := Array.append !readers [| { r = ep; rh = h; rst = Alive } |];
        incidents :=
          { ikind = Join_reader; start = a; crash = a; detect = a;
            recovered = a; stop = ep.M.busy }
          :: !incidents
  in

  let w_run = M.wall () in
  let next_tick = ref (if cfg.crashes > 0 then tick_ns else Float.infinity) in
  let next_ev = ref 0 in
  let tick () =
    let t = !next_tick in
    next_tick := t +. tick_ns;
    heartbeat t;
    monitor_pass t
  in
  for i = 0 to cfg.ops - 1 do
    let a = arr.(i) in
    while !next_tick <= a do
      tick ()
    done;
    while !next_ev < Array.length script && fst script.(!next_ev) <= a do
      fire (snd script.(!next_ev)) a;
      incr next_ev
    done;
    close_drained a;
    dispatch i
  done;
  (* keep the monitor running until every crashed client is recovered *)
  let passes = ref 0 in
  while Hashtbl.length outstanding > 0 && !passes < 1000 do
    incr passes;
    tick ()
  done;
  if Hashtbl.length outstanding > 0 then
    Work.fail o "%d crashed clients never recovered" (Hashtbl.length outstanding);
  close_drained Float.infinity;
  Array.iter
    (fun w ->
      if w.wst = Alive then
        M.time m w.w "kv.quiesce" (fun () -> Kv.quiesce w.wh))
    writers;
  let run_s = M.wall () -. w_run -. !oracle_s in
  let deferred_left =
    Array.fold_left
      (fun n w -> if w.wst = Alive then n + Kv.deferred_count w.wh else n)
      0 writers
  in

  (* -- end-of-run checks ------------------------------------------- *)
  let calls_ns = M.booked_ns m in
  if full then
    Array.iteri (fun key _ -> expect key (Kv.get oh ~key)) shadow;
  let live = Array.fold_left (fun n v -> if v = absent then n else n + 1) 0 shadow in
  let in_use = shm_cfg.Config.num_segments - Shm.free_segments arena in
  let space_amp =
    float_of_int (in_use * seg_words) /. float_of_int (live * value_words)
  in
  let v, check_s = Work.validate arena in
  if not (Validate.is_clean v) then
    Work.fail o "validate: %s" (String.concat "; " v.Validate.errors);
  let crash_incs = List.filter (fun inc -> inc.ikind = Crash_writer) !incidents in
  if cfg.crashes > 0 then begin
    if List.length crash_incs < cfg.crashes then
      Work.fail o "only %d crash-writer incidents" (List.length crash_incs);
    if !adopted = 0 then Work.fail o "no parked record was adopted"
  end;
  (* incident windows must not overlap *)
  let windows =
    List.sort compare (List.map (fun inc -> (inc.start, inc.stop)) !incidents)
    |> Array.of_list
  in
  Array.iteri
    (fun k (s, e) ->
      if Float.is_nan e then Work.fail o "incident at %.0f ns never closed" s;
      if k > 0 && s <= snd windows.(k - 1) then
        Work.fail o "incident at %.0f ns overlaps the previous one" s)
    windows;
  Array.iteri
    (fun i l -> if Float.is_nan l then Work.fail o "op %d never completed" i)
    lat;

  (* -- metrics ----------------------------------------------------- *)
  let in_window a = Array.exists (fun (s, e) -> a >= s && a <= e) windows in
  let warm = warmup_frac *. arr.(cfg.ops - 1) in
  let churn = Array.init total (fun i -> i >= cfg.ops || in_window arr.(i)) in
  let steady = Array.init total (fun i -> arr.(i) >= warm && not churn.(i)) in
  let pick f = List.filter f (List.init total Fun.id) |> Array.of_list in
  let lats idx = Array.map (fun i -> lat.(i)) idx in
  let steady_idx = pick (fun i -> steady.(i)) in
  (* the latency figures count every measured op, the injected crash
     triggers and everything queued behind a failover included, so the
     failover cost shows in them *)
  let measured = lats (pick (fun i -> arr.(i) >= warm)) in
  let churn_idx = pick (fun i -> churn.(i)) in
  let class_idx c = pick (fun i -> steady.(i) && cls.(i) = c) in
  let reads = class_idx 0 in
  let writes = pick (fun i -> steady.(i) && cls.(i) <> 0) in
  let nres = cfg.writers + Array.length !readers in
  let max_rate () =
    Replay.max_rate_mops ~rate_mops:cfg.rate_mops ~nres ~ncls:4
      (Array.map
         (fun i ->
           { Replay.arr = arr.(i); cls = cls.(i); stages = [| (res.(i), svc.(i)) |];
             lat_stages = 1 })
         steady_idx)
  in
  let p50_us f =
    M.quantile (Array.of_list (List.map f crash_incs)) 0.5 /. 1000.0
  in
  let modeled =
    [
      ("mean_ns", M.mean measured);
      ("tail_mean_ns", M.tail_mean measured 0.99);
      ("svc_ns_per_op", calls_ns /. float_of_int !completed);
    ]
    @ if full then [ ("max_rate_mops", max_rate ()) ] else []
  in
  let layer =
    if not full then []
    else
    Work.call_metrics m
    @ [
        ("queue.read_wait_ns_p99",
          M.quantile (Array.map (fun i -> wait.(i)) reads) 0.99);
        ("queue.write_wait_ns_p99",
          M.quantile (Array.map (fun i -> wait.(i)) writes) 0.99);
        ("failover.detect_us_p50", p50_us (fun inc -> inc.detect -. inc.crash));
        ("failover.recover_us_p50",
          p50_us (fun inc -> inc.recovered -. inc.detect));
        ("failover.drain_us_p50", p50_us (fun inc -> inc.stop -. inc.recovered));
        ("failover.total_us_p50", p50_us (fun inc -> inc.stop -. inc.crash));
      ]
    @ Work.shmem_metrics m
    @ [
        ("kv.deferred_left", float_of_int deferred_left);
        ("kv.read_p99_ns", M.quantile (lats reads) 0.99);
        ("kv.write_p99_ns", M.quantile (lats writes) 0.99);
        ("kv.churn_p99_ns", M.quantile (lats churn_idx) 0.99);
        ("kv.space_amp", space_amp);
      ]
    @ (if tracing then Work.hist_metrics m @ Work.self_metrics m ~ops:!completed
       else [])
  in
  (* teardown (after validate: closing the last handle frees the store) *)
  let leave ep h =
    M.time m ep "kv.close" (fun () -> Kv.close h);
    M.time m ep "shm.leave" (fun () -> Shm.leave ep.M.ctx)
  in
  Array.iter (fun w -> if w.wst = Alive then leave w.w w.wh) writers;
  Array.iter (fun rd -> if rd.rst = Alive then leave rd.r rd.rh) !readers;
  Kv.close oh;
  Shm.leave octx;
  List.iter (fun e -> Work.fail o "layer sum: %s" e) (snd (M.check_sum m));
  ( {
      Work.attempted = total;
      failed = total - !completed;
      errors = Work.errors o;
      setup_s;
      run_s;
      check_s;
      modeled;
      layer;
    },
    m )
