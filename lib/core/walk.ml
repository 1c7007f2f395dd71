module Mem = Cxlshm_shmem.Mem

type kind = Unused | Class of int | Rootrefs | Huge | Quarantined | Junk of int

let page_kind mem lay ~gid =
  let cfg = lay.Layout.cfg in
  let k = Mem.unsafe_peek mem (Layout.page_kind lay ~gid) in
  if k = Config.kind_unused then Unused
  else if k = Config.kind_rootref cfg then Rootrefs
  else if k = Config.kind_huge cfg then Huge
  else if k = Config.kind_quarantined cfg then Quarantined
  else match Config.class_of_kind cfg k with Some c -> Class c | None -> Junk k

let seg_state mem lay s =
  Segment.state_of_word (Mem.unsafe_peek mem (Layout.seg_state lay s))

type role = Plain | Huge_head | Huge_cont

(* The state decides first: a continuation's header words are its huge
   object's payload, so its page-0 kind word may read as anything. Only a
   segment no huge state claims (a leak-marked head) falls back to it. *)
let role mem lay s =
  match seg_state mem lay s with
  | Some Segment.Huge_head -> Huge_head
  | Some Segment.Huge_cont -> Huge_cont
  | _ ->
      if page_kind mem lay ~gid:(Layout.page_gid lay ~seg:s ~page:0) = Huge then
        Huge_head
      else Plain

let huge_obj lay s = Layout.segment_base lay s + lay.Layout.seg_hdr_words

let huge_span mem lay s =
  let n = lay.Layout.cfg.Config.num_segments in
  let rec count k =
    if s + k < n && seg_state mem lay (s + k) = Some Segment.Huge_cont then
      count (k + 1)
    else k
  in
  count 1

let huge_max_data_words lay ~span =
  (span * lay.Layout.segment_words) - lay.Layout.seg_hdr_words - Config.header_words

let huge_length_ok mem lay s =
  let peek = Mem.unsafe_peek mem in
  let gid = Layout.page_gid lay ~seg:s ~page:0 in
  let span = max 1 (peek (Layout.page_aux lay ~gid)) in
  let truth = peek (Layout.page_aux2 lay ~gid) in
  let meta_dw =
    Obj_header.meta_data_words (peek (Obj_header.meta_of_obj (huge_obj lay s)))
  in
  truth = 0
  || truth >= 1
     && truth <= huge_max_data_words lay ~span
     && (truth = meta_dw
        || (meta_dw = Obj_header.max_meta_data_words && truth >= meta_dw))

(* Pure metadata peeks, never a read of [p]: the RPC receive path asks
   about hostile words. A continuation segment holds no block base. *)
let block_base_ok mem lay p =
  p > 0 && p < lay.Layout.total_words
  &&
  match Layout.segment_of_addr lay p with
  | exception Invalid_argument _ -> false
  | seg -> (
      match role mem lay seg with
      | Huge_head -> p = huge_obj lay seg
      | Huge_cont -> false
      | Plain -> (
          match Layout.page_gid_of_addr lay p with
          | exception Invalid_argument _ -> false
          | gid -> (
              let peek = Mem.unsafe_peek mem in
              let bw = peek (Layout.page_block_words lay ~gid) in
              let off = p - Layout.page_area lay ~gid in
              match page_kind mem lay ~gid with
              | Class _ ->
                  bw > 0 && off mod bw = 0
                  && off / bw < peek (Layout.page_capacity lay ~gid)
              | Unused | Rootrefs | Huge | Quarantined | Junk _ -> false)))

let rootref_ok mem lay rr =
  rr > 0 && rr < lay.Layout.total_words
  &&
  match Layout.page_gid_of_addr lay rr with
  | exception Invalid_argument _ -> false
  | gid ->
      page_kind mem lay ~gid = Rootrefs
      && (rr - Layout.page_area lay ~gid) mod Config.rootref_words = 0

(* ---- iteration ---- *)

let iter_segments mem lay f =
  for s = 0 to lay.Layout.cfg.Config.num_segments - 1 do
    f s (role mem lay s)
  done

let seg_pages lay s =
  List.init lay.Layout.cfg.Config.pages_per_segment (fun page ->
      Layout.page_gid lay ~seg:s ~page)

let iter_pages mem lay f =
  iter_segments mem lay (fun seg r ->
      if r = Plain then
        List.iter (fun gid -> f ~gid (page_kind mem lay ~gid)) (seg_pages lay seg))

let page_blocks mem lay ~gid =
  let bw = Mem.unsafe_peek mem (Layout.page_block_words lay ~gid) in
  let cap = Mem.unsafe_peek mem (Layout.page_capacity lay ~gid) in
  let base = Layout.page_area lay ~gid in
  (* a damaged geometry word must not send the walk past its page *)
  if bw <= 0 || cap <= 0 || cap > lay.Layout.cfg.Config.page_words / bw then []
  else List.init cap (fun i -> base + (i * bw))

let iter_blocks mem lay f =
  iter_segments mem lay (fun seg r ->
      match r with
      | Huge_head -> f ~seg Huge (huge_obj lay seg)
      | Huge_cont -> ()
      | Plain ->
          List.iter
            (fun gid ->
              match page_kind mem lay ~gid with
              | Unused | Huge -> ()
              | k -> List.iter (f ~seg k) (page_blocks mem lay ~gid))
            (seg_pages lay seg))

(* ---- holders and reachability ---- *)

type holder =
  | From_rootref of int
  | From_queue_directory
  | From_named_root
  | From_slot of int * int

let holder_name = function
  | From_rootref rr -> Printf.sprintf "rootref@%d" rr
  | From_queue_directory -> "queue-directory"
  | From_named_root -> "named-root"
  | From_slot (obj, i) -> Printf.sprintf "emb@%d[%d]" obj i

let roots mem lay =
  let rrs = ref [] in
  iter_blocks mem lay (fun ~seg:_ k rr ->
      if k = Rootrefs && Rootref.peek_in_use mem rr then
        let obj = Rootref.peek_obj mem rr in
        if obj <> 0 then rrs := (From_rootref rr, obj) :: !rrs);
  List.rev !rrs
  @ List.map (fun q -> (From_queue_directory, q)) (Transfer.directory_refs mem lay)
  @ List.map (fun p -> (From_named_root, p)) (Named_roots.directory_refs mem lay)

let live mem k b =
  if k = Rootrefs then Rootref.peek_in_use mem b
  else Obj_header.ref_cnt_of (Mem.unsafe_peek mem b) > 0

(* The non-null embedded words of [obj], each with its slot. A damaged
   embedded count is cut at the arena's end. *)
let iter_slots mem lay obj f =
  let peek = Mem.unsafe_peek mem in
  let cnt = Obj_header.meta_emb_cnt (peek (Obj_header.meta_of_obj obj)) in
  for i = 0 to min cnt (lay.Layout.total_words - Obj_header.emb_slot obj 0) - 1 do
    let child = peek (Obj_header.emb_slot obj i) in
    if child <> 0 then f (From_slot (obj, i)) child
  done

let holders mem lay ~on_wild =
  let tbl = Hashtbl.create 256 in
  let add h p =
    if not (block_base_ok mem lay p) then on_wild h p
    else Hashtbl.replace tbl p (h :: Option.value (Hashtbl.find_opt tbl p) ~default:[])
  in
  List.iter (fun (h, p) -> add h p) (roots mem lay);
  iter_blocks mem lay (fun ~seg:_ k b ->
      if k <> Rootrefs && live mem k b then iter_slots mem lay b add);
  tbl

let reach mem lay ~on_wild roots =
  let count = Hashtbl.create 256 in
  let work = Queue.create () in
  let add h p =
    if not (block_base_ok mem lay p) then on_wild h p
    else
      let seen = Option.value (Hashtbl.find_opt count p) ~default:0 in
      Hashtbl.replace count p (seen + 1);
      if seen = 0 then Queue.push p work
  in
  List.iter (fun (h, p) -> add h p) roots;
  while not (Queue.is_empty work) do
    iter_slots mem lay (Queue.pop work) add
  done;
  count

(* ---- parked records ---- *)

type entry_fault =
  | Dead_rootref
  | Freed_owner
  | No_target
  | Journaled_at of int
  | Bad_claim of int
  | Above_high_water of int

let live_rootref mem lay rr = rootref_ok mem lay rr && Rootref.peek_in_use mem rr

let slot_free mem lay cid =
  Client.status_of_word (Mem.unsafe_peek mem (Layout.client_flags lay cid))
  = Some Client.Slot_free

(* The oracle reads every slot, not just those below the high-water
   word the runtime's scans stop at, and reports an occupied slot at or
   above the word: the one state that would hide an entry from them. *)
let above_high_water ~hw k ~rr =
  if rr <> 0 && k >= hw then [ Above_high_water hw ] else []

let iter_parked mem lay f =
  for cid = 0 to lay.Layout.cfg.Config.max_clients - 1 do
    let hw = Mem.unsafe_peek mem (Layout.park_hw lay cid) in
    for k = 0 to Layout.park_capacity lay - 1 do
      let rr = Mem.unsafe_peek mem (Layout.park_slot_rr lay cid k) in
      f ~cid k ~rr
        ((if rr = 0 then []
          else if not (live_rootref mem lay rr) then [ Dead_rootref ]
          else if slot_free mem lay cid then [ Freed_owner ]
          else [])
        @ above_high_water ~hw k ~rr)
    done
  done

let iter_journal mem lay f =
  let peek = Mem.unsafe_peek mem in
  let journaled = Hashtbl.create 16 in
  let hw = peek (Layout.adopt_hw lay) in
  for i = 0 to Layout.adopt_capacity lay - 1 do
    let rr = peek (Layout.adopt_slot_rr lay i) in
    let claim = peek (Layout.adopt_slot_claim lay i) in
    let rr_fault =
      if rr = 0 then []
      else if not (live_rootref mem lay rr) then [ Dead_rootref ]
      else if Rootref.peek_obj mem rr = 0 then [ No_target ]
      else
        match Hashtbl.find_opt journaled rr with
        | Some j -> [ Journaled_at j ]
        | None ->
            Hashtbl.replace journaled rr i;
            []
    in
    let claim_ok =
      claim = 0
      || (claim > 0 && claim <= lay.Layout.cfg.Config.max_clients
         && not (slot_free mem lay (claim - 1)))
    in
    f i ~rr
      (rr_fault
      @ (if claim_ok then [] else [ Bad_claim claim ])
      @ above_high_water ~hw i ~rr)
  done
