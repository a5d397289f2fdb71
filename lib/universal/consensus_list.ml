open Lb_memory
open Lb_runtime
open Program.Syntax

(* One-shot consensus on a single LL/SC register (Unit = undecided).  At
   most three shared operations:
   - LL: if already decided, that is the answer;
   - else SC my proposal: success decides it;
   - either way a final read returns the (now stable) decision — my SC
     failing means another SC succeeded in the interim. *)
let propose cell v =
  let* current = Program.ll cell in
  if not (Value.equal current Value.Unit) then Program.return current
  else
    let* _ok = Program.sc_flag cell v in
    let* decided = Program.read cell in
    if Value.equal decided Value.Unit then failwith "consensus-list: cell undecided after SC"
    else Program.return decided

let worst_case ~n = (8 * n) + 10

let create layout ~n spec =
  if n <= 0 then invalid_arg "Consensus_list.create: n must be positive";
  let announce = Layout.alloc_array layout ~len:n ~init:Value.Unit in
  (* Cells occupy the open-ended register space after every allocation the
     layout will hand out; cell k lives at [cell_base + k] and reads as the
     memory default (Unit = undecided) until first touched. *)
  let cell_base = Layout.reserve_tail layout in
  let cell k = cell_base + k in
  (* Per-process local replay caches (single-writer: only process [pid]
     touches index [pid]).  [position] is the next cell to inspect; [state]
     the object state after replaying all cells below it; [threaded.(q)]
     the highest seq of process [q] decided in a cell below it, or -1.  A
     process proposes at cell k only after cells 0..k-1 are decided, so each
     process's seqs increase along the cells and "(q, s) is threaded" is
     exactly [threaded.(q) >= s]. *)
  let position = Array.make n 0 in
  let state = Array.make n spec.Lb_objects.Spec.init in
  let threaded = Array.init n (fun _ -> Array.make n (-1)) in
  let apply ~pid ~seq op =
    if pid < 0 || pid >= n then
      invalid_arg (Printf.sprintf "consensus-list: pid %d out of range" pid);
    let desc = { Codec.Desc.pid; seq; op } in
    let my_key = Codec.Desc.key desc in
    let* _old = Program.swap announce.(pid) (Codec.Desc.encode desc) in
    let rec walk () =
      let k = position.(pid) in
      (* Classic helping rule: propose the announced-but-unthreaded
         operation of process (k mod n), defaulting to my own. *)
      let helped = k mod n in
      let* announced = Program.read announce.(helped) in
      let candidate =
        if Value.equal announced Value.Unit then desc
        else
          let other = Codec.Desc.decode announced in
          if Codec.Desc.key other = my_key || threaded.(pid).(other.pid) >= other.seq then desc
          else other
      in
      let* decided_value = propose (cell k) (Codec.Desc.encode candidate) in
      let decided = Codec.Desc.decode decided_value in
      let state', response = spec.Lb_objects.Spec.apply state.(pid) decided.Codec.Desc.op in
      position.(pid) <- k + 1;
      state.(pid) <- state';
      threaded.(pid).(decided.pid) <- decided.seq;
      if Codec.Desc.key decided = my_key then Program.return response else walk ()
    in
    walk ()
  in
  { Iface.name = "consensus-list"; oblivious = true; n; apply }

let construction = { Iface.name = "consensus-list"; oblivious = true; worst_case; create }
