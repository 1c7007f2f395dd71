(** The asynchronous, stateless, fail-safe recovery service (§3.2, §4.3).

    Recovery of a failed client [i] never blocks live clients and is itself
    restartable at any point (every step is either idempotent or a
    resumable era transaction executed under [i]'s identity):

    + resume the in-flight transaction recorded in [i]'s redo log, using
      Conditions 1 & 2 to decide whether the commit CAS happened; the
      ModifyRefCnt is {e never} redone, the ModifyRef tail is redone at
      least once;
    + finish (or discard) the sealed retirement batch in [i]'s epoch
      journal ({!Epoch}) — before any phase that issues new era-consuming
      transactions for [i], since an unfinished entry's commit is decided
      against [i]'s {e current} era;
    + move [i]'s parked-record registry (era-pinned KV records unlinked by
      the dead writer, {!Layout.park_slot_rr}) into the arena-wide
      adoption journal, retire stamps intact — never freeing era-blind; a
      live successor adopts the entries ([Cxl_kv.adopt_recovered]) or the
      monitor drains them once every announced era has passed
      ({!drain_adopt_journal});
    + close [i]'s transfer-queue endpoints (§5.2);
    + scan [i]'s RootRef pages — the content in and only in those pages —
      releasing every reference the dead client possessed, with the §5.1
      free-pointer guard against blocks whose allocation never completed;
    + drain the persistent worklist: objects whose count hit zero get their
      embedded references detached (depth-first) and their segments marked
      POTENTIAL_LEAKING — reclamation itself is never redone (§5.3);
    + orphan or release [i]'s segments and free the client slot.

    A {!Layout.recovery_lock} serialises recoveries; a fresh recovery first
    finishes any interrupted one it finds under the lock. *)

type report = {
  resumed_txn : bool;  (** an in-flight transaction was resumed *)
  rootrefs_released : int;
  incomplete_allocs : int;  (** §5.1 free-pointer-guard skips *)
  worklist_processed : int;
  segments_orphaned : int;
  segments_released : int;
  leak_marked : int;
  journal_replayed : int;  (** unfinished retirement-journal entries *)
  parked_journaled : int;
      (** parked records moved to the adoption journal *)
}

val pp_report : Format.formatter -> report -> unit

val mutation_crash_reap : bool ref
(** Test-only: re-introduce the historical era-blind reap — recovery frees
    a crashed writer's parked records through the live eager path instead
    of journaling them for adoption. The [kv-crash-reap] explorer mutation;
    the bounded-exhaustive crash-then-recover search must observe the
    resulting use-after-free. *)

val park_high_water : Ctx.t -> cid:int -> int
(** How many of [cid]'s park-registry slots a scan must read: its
    {!Layout.park_hw} word, capped at the capacity. Every slot at or above
    it is free. *)

val journal_high_water : Ctx.t -> int
(** How many adoption-journal slots a scan must read: the
    {!Layout.adopt_hw} word, capped at the capacity. *)

val adopt_pending : Ctx.t -> int
(** Number of occupied adoption-journal slots (awaiting a successor or the
    drain). *)

val drain_adopt_journal : Ctx.t -> int
(** Monitor fallback when no live successor adopts: release every
    unclaimed journal entry whose retire stamp precedes all announced
    reader eras ({!Hazard.min_announced}). Returns the number released.
    Entries claimed by an in-flight adoption or still within an announced
    era are left in place. *)

val recover : Ctx.t -> failed_cid:int -> report
(** Run full recovery of [failed_cid] using [ctx] (any live context — the
    service borrows its stats attribution only; all persistent effects run
    under the dead client's identity). The client must be in [Failed]
    state or already mid-recovery. *)

val resume_interrupted : Ctx.t -> report option
(** If a previous recovery crashed while holding the lock, finish it. *)
