(** Read-only arena walker: the one module that knows the block format.

    Block positions are computable because pages hold fixed-size blocks
    (§5.3): a segment is a run of carved pages or one huge object, and
    block [i] of a page sits at [page_area + i * block_words]. {!Validate},
    {!Fsck}, {!Debug} and the RPC receive-side pointer check take their
    blocks, holders and reachability from here.

    Every read is a {!Cxlshm_shmem.Mem.unsafe_peek}, so walking charges no
    client and moves no modeled figure. Each call reads the image as it is
    at that moment: a caller that writes between calls (fsck) sees its own
    repairs. Nothing here raises on a damaged image: an undecodable word
    decodes to an invalid case, a page's blocks are listed only when its
    geometry fits the page, an embedded count is cut at the arena's end,
    and a word is never followed before {!block_base_ok} accepts it. *)

type kind =
  | Unused
  | Class of int  (** size class of the page's blocks *)
  | Rootrefs
  | Huge  (** a page of a huge object's head segment *)
  | Quarantined
  | Junk of int  (** a word no page kind encodes *)

val page_kind : Cxlshm_shmem.Mem.t -> Layout.t -> gid:int -> kind

val seg_state : Cxlshm_shmem.Mem.t -> Layout.t -> int -> Segment.state option
(** [None] for a word no segment state encodes. *)

type role =
  | Plain  (** carved pages, or none yet *)
  | Huge_head
      (** one object at {!huge_obj}: state [Huge_head], or a leak-marked
          head whose page 0 still has kind [Huge] *)
  | Huge_cont

val role : Cxlshm_shmem.Mem.t -> Layout.t -> int -> role
val huge_obj : Layout.t -> int -> Cxlshm_shmem.Pptr.t

val huge_span : Cxlshm_shmem.Mem.t -> Layout.t -> int -> int
(** The head plus its consecutive [Huge_cont] successors, by segment state. *)

val huge_max_data_words : Layout.t -> span:int -> int

val huge_length_ok : Cxlshm_shmem.Mem.t -> Layout.t -> int -> bool
(** Does the head page's true-length word fit the span word and agree with
    the packed meta field (which saturates at
    {!Obj_header.max_meta_data_words})? 0 — an image from before the
    true-length word — passes. *)

val block_base_ok : Cxlshm_shmem.Mem.t -> Layout.t -> int -> bool
(** Is [p] a huge head's object or a block-aligned slot within the capacity
    of a size-class page — a base a reference may name? Safe on hostile
    words: it peeks metadata only, never [p]. *)

val rootref_ok : Cxlshm_shmem.Mem.t -> Layout.t -> int -> bool
(** Is [rr] the base of a block of a RootRef page? *)

(** {1 Iteration} *)

val iter_segments : Cxlshm_shmem.Mem.t -> Layout.t -> (int -> role -> unit) -> unit
val seg_pages : Layout.t -> int -> int list

val iter_pages : Cxlshm_shmem.Mem.t -> Layout.t -> (gid:int -> kind -> unit) -> unit
(** Every page of every [Plain] segment. *)

val page_blocks : Cxlshm_shmem.Mem.t -> Layout.t -> gid:int -> Cxlshm_shmem.Pptr.t list
(** Block slots by the page's own block size and capacity; none when they
    do not fit in the page. *)

val iter_blocks :
  Cxlshm_shmem.Mem.t ->
  Layout.t ->
  (seg:int -> kind -> Cxlshm_shmem.Pptr.t -> unit) ->
  unit
(** Every carved block in address order: each huge head's object (kind
    [Huge]) and every block of a [Plain]-segment page that is neither
    [Unused] nor [Huge], RootRef blocks included. Each segment is read when
    reached, so the callback may rewrite segments already passed. *)

(** {1 Holders and reachability} *)

type holder =
  | From_rootref of Cxlshm_shmem.Pptr.t
  | From_queue_directory
  | From_named_root
  | From_slot of Cxlshm_shmem.Pptr.t * int  (** embedded slot [i] of an object *)

val holder_name : holder -> string

val roots : Cxlshm_shmem.Mem.t -> Layout.t -> (holder * Cxlshm_shmem.Pptr.t) list
(** The durable roots: every in-use RootRef's target, then the queue and
    named-root directories' counted pointers. *)

val live : Cxlshm_shmem.Mem.t -> kind -> Cxlshm_shmem.Pptr.t -> bool
(** Is the block in use: an in-use RootRef, or an object with count > 0? *)

val holders :
  Cxlshm_shmem.Mem.t -> Layout.t -> on_wild:(holder -> int -> unit) ->
  (Cxlshm_shmem.Pptr.t, holder list) Hashtbl.t
(** Every holder of every block: the roots plus each non-null embedded slot
    of every live (count > 0) object, reachable or not. A word failing
    {!block_base_ok} goes to [on_wild] instead. *)

val reach :
  Cxlshm_shmem.Mem.t -> Layout.t -> on_wild:(holder -> int -> unit) ->
  (holder * Cxlshm_shmem.Pptr.t) list -> (Cxlshm_shmem.Pptr.t, int) Hashtbl.t
(** The objects reachable from the given roots (normally {!roots}), each
    with its number of reachable holders. A word failing {!block_base_ok}
    goes to [on_wild] and is not followed. *)

(** {1 Parked records}

    The per-client park registries and the adoption journal hold rootrefs
    of parked records. One rule says which entries are sound: {!Validate}
    flags the faults and {!Fsck} clears the entries that have them. *)

type entry_fault =
  | Dead_rootref  (** the rr word is not a live RootRef *)
  | Freed_owner
      (** a park entry of a freed client slot (recovery should have
          journaled it) *)
  | No_target  (** the journaled rootref parks no object *)
  | Journaled_at of int  (** the rr is already journaled at this slot *)
  | Bad_claim of int  (** the claim names no possible, recorded client *)
  | Above_high_water of int
      (** the occupied slot sits at or above its structure's high-water
          word ({!Layout.park_hw}, {!Layout.adopt_hw}), which holds this
          value: every bounded scan of the runtime misses it *)

val iter_parked :
  Cxlshm_shmem.Mem.t -> Layout.t ->
  (cid:int -> int -> rr:Cxlshm_shmem.Pptr.t -> entry_fault list -> unit) -> unit
(** Every park-registry slot up to the capacity (not just below the
    high-water word), with the faults of its rr word. *)

val iter_journal :
  Cxlshm_shmem.Mem.t -> Layout.t ->
  (int -> rr:Cxlshm_shmem.Pptr.t -> entry_fault list -> unit) -> unit
(** Every adoption-journal slot in order up to the capacity, with the
    faults of its rr word (a
    duplicate is charged to the later slot) and of its claim word. *)
