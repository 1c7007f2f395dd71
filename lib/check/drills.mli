(** The fault-injection drills (§6.2.2 and the control-plane failover
    stories), one registry shaped like {!Scenarios}: crash a client, a
    monitor replica, a KV writer or an RPC endpoint at a labelled point,
    recover, and check the arena for leaks, double frees and wild
    pointers. [cxlshm drill --name] runs entries by name.

    - [soak]: the crash-point × device-fault × backend matrix
      ({!Soak.run_matrix}, 400 steps per run).
    - [monitor-kill]: the leader replica killed mid-recovery
      ({!Soak.monitor_kill}).
    - [writer-kill]: a KV writer killed mid-quiesce; a successor adopts
      its parked records through the adoption journal.
    - [rpc-kill-server] / [rpc-kill-client]: one endpoint of a live RPC
      channel killed under an in-flight call.
    - [evacuate]: a striped pool's device degraded and drained.
    - [monitor-race]: live replica loops in their own domains racing to
      reap a silent client (wall-clock, the one nondeterministic drill). *)

type result = {
  pass : bool;
  report : string;  (** one line, the drill's verdict *)
  json : string;  (** the drill's machine-readable record *)
}

type t = {
  name : string;
  doc : string;
  seed : int;  (** default seed; 0 where the drill draws no random numbers *)
  run : seed:int -> result;
      (** Detail lines, if any, go to stdout before [report] is returned. *)
}

val all : unit -> t list

val find : string -> t
(** Raises [Invalid_argument] for an unknown drill name. *)

val to_json : (t * int * result) list -> string
(** One report over [(drill, seed, result)] runs. *)
