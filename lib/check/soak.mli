(** Crash-point × device-fault soak sweep (§6.2.2 under a fault model).

    A run drives the randomized multi-client workload against an arena
    whose backend may inject device faults on a deterministic schedule,
    while one client carries a crash-point plan. Clients that hit a fault
    or crash point fail-stop. Afterwards the injection is disarmed (the
    devices are "serviced"), every client is crash-recovered, the arena is
    validated, {!Fsck.repair} runs, and the run's verdict is the post-fsck
    validation (on the quiet schedule, the pre-fsck one as well).
    Everything derives from the base seed, so the matrix replays exactly.
    The [soak] and [monitor-kill] entries of {!Drills} run it. *)

open Cxlshm

type schedule
(** Device-fault injection rates and outage windows. *)

val default_schedules : schedule list
(** [quiet]; [transient] (poison + tears); [stuck] (persistent media
    damage); [offline] (device outage windows). *)

(** {1 The §6.2.2 workload} *)

type workload
(** Per-client held references, queues and the birth order that keeps the
    object graph acyclic. *)

val workload : rng:Random.State.t -> Ctx.t array -> workload

val step : workload -> int -> unit
(** One random operation by client [who]: allocate, clone, drop, link,
    re-point or clear an embedded ref, send or receive through a transfer
    queue. A crash point or device fault escapes as the client's death. *)

val held : workload -> int -> Cxl_ref.t list
(** What client [who] still holds. *)

(** {1 The crash-point × device-fault matrix} *)

type run = {
  backend : string;
  schedule : string;
  point : string;  (** crash-point name, or ["none"] *)
  seed : int;
  steps : int;
  crashes : (int * string) list;  (** (cid, cause) for each failed client *)
  dev_faults : int;  (** device errors surfaced to clients *)
  retries : int;
  backoff_ns : float;
  escalations : int;
  injected : (string * int) list;  (** backend-side per-class counts *)
  degraded : int list;  (** devices degraded before servicing *)
  sweep_errors : int;  (** recovery attempts that raised, pre-fsck *)
  pre_clean : bool;  (** validation after recovery, before fsck *)
  fsck : Fsck.report;
  clean : bool;  (** the verdict: post-fsck validation *)
}

val run_matrix : seed:int -> steps:int -> run list
(** Full sweep: [flat] and 4-device striped backends × {!default_schedules}
    × (no crash :: {!Fault.all_points}). Per-run seeds mix the base seed
    with the matrix coordinates. *)

val failures : run list -> run list
(** Runs not [clean], and quiet-schedule runs not [pre_clean]. *)

val unreached_points : run list -> string list
(** Crash points no run died at, in {!Fault.all_points} order. *)

(** {1 Monitor-kill failover schedule} *)

type failover = {
  fo_seed : int;
  fo_steps : int;
  hung_cid : int;  (** the client that went silent under load *)
  leader_crashed : bool;  (** replica 0 died inside the recovery it led *)
  follower_finished : bool;  (** replica 1 freed the hung client's slot *)
  fo_degraded : int;  (** the device drained after the takeover *)
  live_segments_left : int;  (** live segments still on it at the end *)
  fo_clean : bool;  (** final post-fsck validation *)
}

val monitor_kill : ?steps:int -> seed:int -> unit -> failover
(** The control-plane soak: a linked multi-client workload on a 4-device
    striped pool; one client hangs (alive, holding references, lease
    lapsing); the leader monitor replica is killed inside the recovery it
    started; the follower must depose it and finish that recovery
    mid-flight; then device 0 is marked degraded and drained — survivors
    relocate their own RootRef blocks, the new leader sweeps the rest. A
    passing run has [follower_finished], [live_segments_left = 0] and
    [fo_clean]. Deterministic in [seed]: the replicas interleave
    synchronously, no domains. *)

val json_string : string -> string
(** A quoted, escaped JSON string literal. *)

val matrix_to_json : seed:int -> run list -> string
(** Machine-readable sweep summary: base seed, totals, the failing runs'
    coordinates, the unreached crash points, and every run record. *)
