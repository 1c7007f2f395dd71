(* The RPC workload: a closed loop of [clients] callers, one outstanding
   call each, into one server that serves their channels round-robin, in
   lockstep on the modeled clock. A call's latency runs from call_async to
   the end of finish, so it includes the wait for the server. *)

open Cxlshm
module Rpc = Cxlshm_rpc.Cxl_rpc
module Msg = Cxlshm_rpc.Message
module M = Meter
module I = Inputs

type cfg = { clients : int; rounds : int }

(* From 4 clients on the single server is the bottleneck (dequeue,
   isolation walk, completion publish), and no KV code runs. *)
let fanin = { clients = 8; rounds = 5_000 }

(* The 8 KiB payload must be one size-class block, hence 2,048-word
   pages; each channel gets the largest sub-heap a queue can publish. *)
let sub_heap = Layout.queue_max_channel_segs

let geometry cfg =
  {
    Config.default with
    Config.max_clients = (2 * cfg.clients) + 4;
    num_segments = (cfg.clients * sub_heap) + 16;
    pages_per_segment = 16;
    page_words = 2048;
    queue_slots = max 64 (8 * cfg.clients);
  }

(* The server reads the head and tail word of every argument; output word
   [k] is their sum plus [k], the last output word echoes the function. *)
let handler ~func ~args ~output =
  List.iteri
    (fun k a ->
      let n = Msg.data_words a in
      Msg.write_word output k (Msg.read_word a 0 + Msg.read_word a (n - 1) + k))
    args;
  Msg.write_word output (List.length args) func

let tail w k = w lxor (k + 1)

(* A call between call_async and finish. *)
type flight = {
  rid : int;  (** the call's root span *)
  t0 : float;  (** client clock when the call started (arguments first) *)
  w0 : float;
  t_call : float;  (** client clock at call_async *)
  args : Cxl_ref.t array;
  p : Rpc.pending;
}

let run ~seed ~tracing ~full cfg =
  let rng = Random.State.make [| seed |] in
  let ncalls = cfg.clients * cfg.rounds in
  let calls = I.rpc rng ~calls:ncalls in
  let o = Work.oracle () in

  let w_setup = M.wall () in
  let arena = Shm.create ~cfg:(geometry cfg) () in
  let model = Cxlshm_shmem.Mem.cost_model (Shm.mem arena) in
  let sctx = Shm.join arena () in
  let chans =
    Array.init cfg.clients (fun _ ->
        let c = Shm.join arena () in
        let srv = Rpc.accept sctx ~client_cid:c.Ctx.cid ~capacity:32 in
        let cl =
          Rpc.connect ~sub_heap_segments:sub_heap c ~server_cid:sctx.Ctx.cid
            ~capacity:32
        in
        (c, cl, srv))
  in
  let setup_s = M.wall () -. w_setup in

  let m = M.create ~model ~tracing in
  let sep = M.register m sctx in
  let ceps = Array.map (fun (c, _, _) -> M.register m c) chans in
  let lat = Array.make ncalls 0.0 and qwait = Array.make ncalls 0.0 in
  let pre = Array.make ncalls 0.0 and srv_ns = Array.make ncalls 0.0 in
  let fin = Array.make ncalls 0.0 and post = Array.make ncalls 0.0 in
  let completed = ref 0 in
  let root () = if tracing then M.fresh_id m else 0 in
  let w_run = M.wall () in
  let inflight = Array.make cfg.clients None in
  let sent = Array.make cfg.clients 0.0 and served = Array.make cfg.clients 0.0 in
  for round = 0 to cfg.rounds - 1 do
    Array.iteri
      (fun c (_, cl, _) ->
        let i = (round * cfg.clients) + c in
        let call = calls.(i) in
        let ep = ceps.(c) in
        let rid = root () and req = i + 1 in
        let t0 = ep.M.busy and w0 = M.now m in
        let args =
          Array.map
            (fun size ->
              M.time m ep ~parent:rid ~req "rpc.alloc_arg" (fun () ->
                  Rpc.alloc_arg cl ~size_bytes:size ()))
            call.I.sizes
        in
        M.time m ep ~parent:rid ~req "ref.write" (fun () ->
            Array.iteri
              (fun k a ->
                let w = call.I.words.(k) in
                Cxl_ref.write_word a 0 w;
                Cxl_ref.write_word a (Cxl_ref.data_words a - 1) (tail w k))
              args);
        let t_call = ep.M.busy in
        let p =
          M.time m ep ~parent:rid ~req "rpc.call_async" (fun () ->
              Rpc.call_async cl ~func:call.I.func ~args:(Array.to_list args)
                ~output_bytes:(8 * (Array.length args + 1)))
        in
        pre.(i) <- ep.M.busy -. t0;
        sent.(c) <- ep.M.busy;
        inflight.(c) <- Some { rid; t0; w0; t_call; args; p })
      chans;
    Array.iteri
      (fun c (_, _, srv) ->
        let i = (round * cfg.clients) + c in
        sep.M.busy <- Float.max sep.M.busy sent.(c);
        qwait.(i) <- sep.M.busy -. sent.(c);
        let s0 = sep.M.busy in
        let rid = match inflight.(c) with Some f -> f.rid | None -> 0 in
        if
          not
            (M.time m sep ~parent:rid ~req:(i + 1) "rpc.serve_one" (fun () ->
                 Rpc.serve_one srv ~handler))
        then Work.fail o "call %d: server found no request" i;
        srv_ns.(i) <- sep.M.busy -. s0;
        served.(c) <- sep.M.busy)
      chans;
    Array.iteri
      (fun c _ ->
        let i = (round * cfg.clients) + c in
        let call = calls.(i) in
        let ep = ceps.(c) in
        match inflight.(c) with
        | None -> ()
        | Some { rid; t0; w0; t_call; args; p } -> (
            inflight.(c) <- None;
            let req = i + 1 in
            ep.M.busy <- Float.max ep.M.busy served.(c);
            let f0 = ep.M.busy in
            match M.time m ep ~parent:rid ~req "rpc.finish" (fun () -> Rpc.finish p) with
            | out ->
                lat.(i) <- ep.M.busy -. t_call;
                fin.(i) <- ep.M.busy -. f0;
                let p0 = ep.M.busy in
                let n = Array.length args in
                let got =
                  M.time m ep ~parent:rid ~req "ref.read" (fun () ->
                      Array.init (n + 1) (Cxl_ref.read_word out))
                in
                Array.iteri
                  (fun k v ->
                    let want =
                      if k = n then call.I.func
                      else
                        let w = call.I.words.(k) in
                        w + tail w k + k
                    in
                    if v <> want then
                      Work.fail o "call %d: output word %d is %d, want %d" i k v
                        want)
                  got;
                M.time m ep ~parent:rid ~req "ref.drop" (fun () ->
                    Cxl_ref.drop out;
                    Array.iter Cxl_ref.drop args);
                post.(i) <- ep.M.busy -. p0;
                incr completed;
                M.add_span m ~id:rid ~parent:0 ~req "call.rpc" ~t0 ~t1:ep.M.busy
                  ~w0 ~w1:(M.now m)
            | exception (Rpc.Call_rejected s | Rpc.Peer_failed s) ->
                Work.fail o "call %d failed: %s" i s))
      chans
  done;
  let run_s = M.wall () -. w_run in
  let rejected =
    Array.fold_left (fun n (_, _, srv) -> n + Rpc.rejected_calls srv) 0 chans
  in
  if rejected <> 0 then Work.fail o "%d calls rejected" rejected;
  let calls_ns = M.booked_ns m in
  let makespan =
    Array.fold_left (fun t ep -> Float.max t ep.M.busy) sep.M.busy ceps
  in
  let server_busy = Array.fold_left ( +. ) 0.0 srv_ns in
  Array.iteri
    (fun k (_, cl, srv) ->
      M.time m ceps.(k) "rpc.close_client" (fun () -> Rpc.close_client cl);
      M.time m sep "rpc.close_server" (fun () -> Rpc.close_server srv);
      M.time m ceps.(k) "shm.leave" (fun () -> Shm.leave ceps.(k).M.ctx))
    chans;
  M.time m sep "shm.leave" (fun () -> Shm.leave sctx);
  List.iter (fun e -> Work.fail o "layer sum: %s" e) (snd (M.check_sum m));
  let v, check_s = Work.validate arena in
  if not (Validate.is_clean v) then
    Work.fail o "validate: %s" (String.concat "; " v.Validate.errors);

  (* the first 5% of rounds warm the sub-heaps (first use of each page
     costs tens of µs); they run and are checked but are not measured *)
  let first = cfg.rounds / 20 * cfg.clients in
  let measured a = Array.sub a first (ncalls - first) in
  let server = cfg.clients in
  let base_arr = Replay.probe ~n:ncalls in
  let max_rate () =
    Replay.max_rate_mops ~rate_mops:1.0 ~nres:(cfg.clients + 1) ~ncls:3
      (Array.init (ncalls - first) (fun j ->
           let i = first + j in
           let c = i mod cfg.clients in
           {
             Replay.arr = base_arr.(j);
             cls = Array.length calls.(i).I.sizes - 1;
             stages =
               [| (c, pre.(i)); (server, srv_ns.(i)); (c, fin.(i)); (c, post.(i)) |];
             lat_stages = 3;
           }))
  in
  let modeled =
    [
      ("mean_ns", M.mean (measured lat));
      ("tail_mean_ns", M.tail_mean (measured lat) 0.99);
      ("svc_ns_per_op", calls_ns /. float_of_int (max 1 !completed));
    ]
    @ if full then [ ("max_rate_mops", max_rate ()) ] else []
  in
  let layer =
    if not full then []
    else
    Work.call_metrics m
    @ [
        ("rpc.server_busy_frac", server_busy /. makespan);
        ("rpc.queue_wait_ns_p99", M.quantile (measured qwait) 0.99);
        ("rpc.kops", float_of_int !completed /. (makespan /. 1e9) /. 1000.0);
      ]
    @ Work.shmem_metrics m
    @ (if tracing then Work.hist_metrics m @ Work.self_metrics m ~ops:!completed
       else [])
  in
  ( {
      Work.attempted = ncalls;
      failed = ncalls - !completed;
      errors = Work.errors o;
      setup_s;
      run_s;
      check_s;
      modeled;
      layer;
    },
    m )
