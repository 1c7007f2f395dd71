module Mem = Cxlshm_shmem.Mem
module Word = Cxlshm_shmem.Word

type t = {
  live_objects : int;
  live_rootrefs : int;
  free_blocks : int;
  pending_scan : int;
  leaks : int;
  double_frees : int;
  wild_pointers : int;
  count_mismatches : int;
  errors : string list;
}

let is_clean t =
  t.leaks = 0 && t.double_frees = 0 && t.wild_pointers = 0
  && t.count_mismatches = 0

let pp ppf t =
  Format.fprintf ppf
    "live=%d rootrefs=%d free=%d pending=%d leaks=%d double-frees=%d wild=%d \
     mismatches=%d"
    t.live_objects t.live_rootrefs t.free_blocks t.pending_scan t.leaks t.double_frees
    t.wild_pointers t.count_mismatches

(* Head words of the Treiber free stacks pack a tag above the pointer. *)
let f_ptr = Word.field ~shift:0 ~bits:46

let run mem lay =
  let cfg = lay.Layout.cfg in
  let peek = Mem.unsafe_peek mem in
  let live = ref 0 and live_rr = ref 0 and free = ref 0 and pending = ref 0 in
  let leak = ref 0 and dfree = ref 0 and wild = ref 0 and mism = ref 0 in
  let errs = ref [] in
  (* Count one failure against [counter] and record its detail. *)
  let flag counter fmt =
    incr counter;
    Printf.ksprintf (fun s -> errs := s :: !errs) fmt
  in

  (* ---- collect reference holders ---- *)
  let holders =
    Walk.holders mem lay ~on_wild:(fun h p ->
        flag wild "wild pointer @%d held by %s" p (Walk.holder_name h))
  in

  (* ---- free structures ---- *)
  (* Walk one intrusive list from [p], its next word at [p + off]. [fuel]
     bounds a cycle; with [overrun] running out of it is itself a fault (a
     page chain cannot outgrow its capacity). [ok] vets an entry before it
     is counted or followed. *)
  let free_set : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec chain ~where ~off ?(overrun = false) ?(ok = fun _ -> true) p fuel =
    if p <> 0 then
      if fuel = 0 then begin
        if overrun then flag dfree "%s longer than capacity (cycle?)" where
      end
      else if ok p then begin
        if Hashtbl.mem free_set p then
          flag dfree "block @%d appears twice in free structures (%s)" p where
        else Hashtbl.replace free_set p ();
        chain ~where ~off ~overrun ~ok (peek (p + off)) (fuel - 1)
      end
  in
  Walk.iter_pages mem lay (fun ~gid k ->
      if k <> Walk.Unused && k <> Walk.Huge then
        chain ~overrun:true
          ~where:(Printf.sprintf "page %d free chain" gid)
          ~off:(Page.next_slot_offset ~kind_rootref:(k = Walk.Rootrefs))
          (peek (Layout.page_free lay ~gid))
          (peek (Layout.page_capacity lay ~gid) + 1));
  (* cross-client stacks *)
  Walk.iter_segments mem lay (fun seg role ->
      if role = Walk.Plain then
        chain
          ~where:(Printf.sprintf "segment %d client_free" seg)
          ~off:Config.header_words
          (Word.get f_ptr (peek (Layout.seg_client_free lay seg)))
          10_000);

  (* ---- domain shard stacks ---- *)
  (* Parked entries are free blocks too. On-stack implies stamped (the
     stamp store precedes the head CAS and nothing unstamps a linked
     entry), so a stamp or kind mismatch is a real inconsistency — and
     the entry's next pointer can no longer be trusted, so stop there. *)
  for d = 0 to cfg.Config.num_domains - 1 do
    for c = 0 to Config.num_classes cfg - 1 do
      let ok p =
        if peek (Shard.stamp_slot p) <> Shard.stamp_of p then begin
          flag dfree "shard stack d%d/c%d: entry @%d bad stamp" d c p;
          false
        end
        else if
          Walk.page_kind mem lay ~gid:(Layout.page_gid_of_addr lay p) <> Walk.Class c
        then begin
          flag dfree "shard stack d%d/c%d: entry @%d wrong class" d c p;
          false
        end
        else true
      in
      chain ~ok
        ~where:(Printf.sprintf "shard stack d%d/c%d" d c)
        ~off:Config.header_words
        (Word.get f_ptr (peek (Layout.domain_class_head lay d c)))
        10_000
    done
  done;

  (* ---- parked-record registries and the adoption journal ---- *)
  (* Both structures hold rootrefs (the rootref page scan above already
     counted them as object holders); here the entries themselves are
     checked against {!Walk}'s rule for them. *)
  let flag_entry where rr = function
    | Walk.Dead_rootref -> flag wild "%s: rr @%d is not a live rootref" where rr
    | Walk.Freed_owner ->
        flag mism "%s: entry @%d outlived its freed client slot" where rr
    | Walk.No_target -> flag mism "%s: rr @%d parks no object" where rr
    | Walk.Journaled_at j -> flag dfree "%s: rr @%d already journaled at [%d]" where rr j
    | Walk.Bad_claim c -> flag mism "%s: claim %d names no recorded client" where c
    | Walk.Above_high_water hw ->
        flag mism "%s: rr @%d at or above the high-water word %d" where rr hw
  in
  Walk.iter_parked mem lay (fun ~cid k ~rr ->
      List.iter (flag_entry (Printf.sprintf "park registry c%d[%d]" cid k) rr));
  Walk.iter_journal mem lay (fun i ~rr ->
      List.iter (flag_entry (Printf.sprintf "adoption journal [%d]" i) rr));

  (* ---- classify every block ---- *)
  (* A suspected client may still be rescued by its own heartbeat, so its
     segments are not scan-pending. *)
  let scan_pending seg =
    (match Walk.seg_state mem lay seg with
    | Some (Segment.Orphaned | Segment.Leaking) -> true
    | _ -> false)
    ||
    let occ = peek (Layout.seg_occupied lay seg) in
    occ <> 0
    &&
    match Client.status_of_word (peek (Layout.client_flags lay (occ - 1))) with
    | Some (Client.Alive | Client.Suspected) -> false
    | _ -> true
  in
  Walk.iter_blocks mem lay (fun ~seg k b ->
      let is_live = Walk.live mem k b in
      let in_free = Hashtbl.mem free_set b in
      if is_live && in_free then flag dfree "block @%d is both live and free" b
      else if is_live && k = Walk.Rootrefs then incr live_rr
      else if is_live then begin
        incr live;
        let cnt = Obj_header.ref_cnt_of (peek b) in
        let hs = Option.value (Hashtbl.find_opt holders b) ~default:[] in
        if cnt <> List.length hs then
          flag mism "object @%d: count %d but %d holders (%s)" b cnt
            (List.length hs)
            (String.concat ", " (List.map Walk.holder_name hs));
        if k = Walk.Huge && not (Walk.huge_length_ok mem lay seg) then
          flag mism "huge object @%d: true length disagrees with its meta word" b
      end
      else if in_free then incr free
      else if scan_pending seg then incr pending
      else flag leak "block @%d: count 0, off-list, segment %d not pending" b seg);

  {
    live_objects = !live;
    live_rootrefs = !live_rr;
    free_blocks = !free;
    pending_scan = !pending;
    leaks = !leak;
    double_frees = !dfree;
    wild_pointers = !wild;
    count_mismatches = !mism;
    errors = List.rev !errs;
  }
