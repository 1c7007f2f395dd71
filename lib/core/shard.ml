module Word = Cxlshm_shmem.Word

(* Per-domain sharded free stacks for the hot size classes.

   With [Config.num_domains] = D > 0, a non-owner free of a class block
   pushes it onto the freeing client's domain stack
   ([Layout.domain_class_head]) instead of the owning segment's
   cross-client stack, and allocation pops the local domain first, then
   CAS-steals from sibling domains, before falling back to the owner page
   scan. The stacks are Treiber stacks with the same packed {tag, pptr}
   head word as [Segment.push_client_free]; the tag bumps on every pop, so
   competing pops (and pop-vs-repush ABA) are defeated.

   A parked block carries a STAMP in its second data word
   ([stamp_slot] = block + header_words + 1, which exists because the
   smallest class block is header + 2 data words): [stamp_of block], a
   magic mixed with the block address. The stamp is the lifetime token of
   a parked entry:

   - while a dead block carries its stamp, the §5.3 leak scan refuses to
     recycle its segment ([pins] below, consulted by
     [Reclaim.segment_empty]) — so a stack entry's page kind and geometry
     can never change under it, and steals from segments of dead or
     departed owners are safe;
   - the stamp survives the pop: the allocator writes the object header
     (making the block live, which also pins the segment) before clearing
     it, so there is no instant at which the block is dead, unstamped and
     off every free structure;
   - a stamp that does not match marks a foreign or repaired block
     ([Fsck] rebuilds page chains and clears stamps) and the entry is
     discarded, salvaging the valid suffix of the stack.

   Stacks shard by the *freeing* client's domain ([cid mod D]), so a
   client's frees and its next allocations hit the same head word. *)

let f_tag = Word.field ~shift:46 ~bits:16
let f_ptr = Word.field ~shift:0 ~bits:46

let next_slot block = block + Config.header_words
let stamp_slot block = block + Config.header_words + 1
let stamp_magic = 0x5A5D_C0DE
let stamp_of block = stamp_magic lxor block

let enabled (ctx : Ctx.t) = (Ctx.cfg ctx).Config.num_domains > 0
let domain_of (ctx : Ctx.t) = ctx.Ctx.cid mod (Ctx.cfg ctx).Config.num_domains

let pins (ctx : Ctx.t) block =
  enabled ctx && Ctx.load ctx (stamp_slot block) = stamp_of block

let clear_stamp (ctx : Ctx.t) block = Ctx.store ctx (stamp_slot block) 0

(* An address we may dereference a next pointer through: inside some
   initialised page area and block-aligned for that page. *)
let plausible (ctx : Ctx.t) p =
  let lay = ctx.Ctx.lay in
  p >= lay.Layout.segments_base
  && p < lay.Layout.total_words
  &&
  match Layout.page_gid_of_addr lay p with
  | exception Invalid_argument _ -> false
  | gid ->
      let bw = Page.block_words ctx ~gid in
      bw > 0 && (p - Layout.page_area lay ~gid) mod bw = 0

(* An entry we may hand to the allocator as a free block of class [cls]. *)
let valid (ctx : Ctx.t) ~cls p =
  plausible ctx p
  && Page.kind ctx ~gid:(Layout.page_gid_of_addr ctx.Ctx.lay p)
     = Config.kind_of_class cls
  && Ctx.load ctx (stamp_slot p) = stamp_of p
  && (match Segment.state ctx (Layout.segment_of_addr ctx.Ctx.lay p) with
     | Segment.Active | Segment.Leaking | Segment.Orphaned -> true
     | Segment.Free | Segment.Huge_head | Segment.Huge_cont -> false)

let push_into (ctx : Ctx.t) ~d ~cls block =
  let head = Layout.domain_class_head ctx.Ctx.lay d cls in
  Ctx.store ctx (stamp_slot block) (stamp_of block);
  let rec loop () =
    let cur = Ctx.load ctx head in
    Ctx.store ctx (next_slot block) (Word.get f_ptr cur);
    if not (Ctx.cas ctx head ~expected:cur ~desired:(Word.set f_ptr cur block))
    then loop ()
  in
  loop ()

let push (ctx : Ctx.t) ~cls block = push_into ctx ~d:(domain_of ctx) ~cls block

(* Walk a detached chain, keeping the entries that still validate (they
   lost only their stack, not their identity) and dropping the rest. The
   fuel bounds traversal of a corrupted chain. *)
let salvage (ctx : Ctx.t) ~cls chain =
  let rec go q fuel acc =
    if q = 0 || fuel = 0 then acc
    else if valid ctx ~cls q then
      go (Ctx.load ctx (next_slot q)) (fuel - 1) (q :: acc)
    else if plausible ctx q then go (Ctx.load ctx (next_slot q)) (fuel - 1) acc
    else acc
  in
  List.iter
    (fun b -> push_into ctx ~d:(domain_of ctx) ~cls b)
    (go chain 10_000 [])

(* Pop from one domain's stack; [None] when (effectively) empty. The
   returned block still carries its stamp — the caller must initialise the
   object header and only then [clear_stamp], so the block pins its
   segment at every instant. *)
let pop_from (ctx : Ctx.t) ~d ~cls =
  let head = Layout.domain_class_head ctx.Ctx.lay d cls in
  let rec loop () =
    let cur = Ctx.load ctx head in
    let p = Word.get f_ptr cur in
    if p = 0 then None
    else begin
      let tag = (Word.get f_tag cur + 1) land Word.max_value f_tag in
      if valid ctx ~cls p then begin
        let next = Ctx.load ctx (next_slot p) in
        if
          Ctx.cas ctx head ~expected:cur
            ~desired:(Word.set f_tag (Word.set f_ptr cur next) tag)
        then Some p
        else loop ()
      end
      else begin
        (* Stale head (repaired or foreign): detach the whole chain and
           salvage its valid suffix. *)
        if
          Ctx.cas ctx head ~expected:cur
            ~desired:(Word.set f_tag (Word.set f_ptr cur 0) tag)
        then salvage ctx ~cls (Ctx.load ctx (next_slot p));
        loop ()
      end
    end
  in
  loop ()

let pop (ctx : Ctx.t) ~cls =
  let nd = (Ctx.cfg ctx).Config.num_domains in
  let d0 = domain_of ctx in
  let rec go i =
    if i >= nd then None
    else
      match pop_from ctx ~d:((d0 + i) mod nd) ~cls with
      | Some p -> Some p
      | None -> go (i + 1)
  in
  go 0
