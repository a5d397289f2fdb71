(* The simple Wing–Gong checker for complete histories (every operation
   responded), kept as the differential oracle for [Linearize]: the
   "general checker = simple checker" property in suite_conformance and
   the checker tests in suite_objects run against it.  The library judges
   every history with [Linearize], which also handles pending operations
   and crash-recovery ghosts.

   A history is linearizable w.r.t. a sequential specification if some
   total order of its operations respects real time (if [e] responded
   before [f] was invoked, [e] precedes [f]) and is a legal sequential
   execution producing exactly the recorded responses. *)

open Lowerbound

type entry = {
  pid : int;
  op : Value.t;
  response : Value.t;
  invoked : int;
  responded : int;
}

let entry ~pid ~op ~response ~invoked ~responded =
  if responded < invoked then invalid_arg "History.entry: responded before invoked";
  { pid; op; response; invoked; responded }

(* Wing-Gong DFS.  At each step the candidates are the remaining entries that
   are "minimal" in the real-time order: no other remaining entry responded
   before their invocation.  A candidate is viable if applying its operation
   to the current abstract state yields exactly its recorded response. *)
let linearization spec entries =
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let remaining = Array.make n true in
  let visited = Hashtbl.create 256 in
  let key state =
    let buf = Buffer.create (n + 32) in
    Array.iter (fun r -> Buffer.add_char buf (if r then '1' else '0')) remaining;
    Buffer.add_char buf '|';
    Buffer.add_string buf (Value.to_string state);
    Buffer.contents buf
  in
  let minimal i =
    remaining.(i)
    && not
         (Array.exists
            (fun j -> remaining.(j) && entries.(j).responded < entries.(i).invoked)
            (Array.init n (fun j -> j)))
  in
  let rec search state acc count =
    if count = n then Some (List.rev acc)
    else
      let k = key state in
      if Hashtbl.mem visited k then None
      else begin
        Hashtbl.add visited k ();
        let rec try_candidates i =
          if i = n then None
          else if minimal i then begin
            let e = entries.(i) in
            let state', response = spec.Spec.apply state e.op in
            if Value.equal response e.response then begin
              remaining.(i) <- false;
              match search state' (e :: acc) (count + 1) with
              | Some _ as witness -> witness
              | None ->
                remaining.(i) <- true;
                try_candidates (i + 1)
            end
            else try_candidates (i + 1)
          end
          else try_candidates (i + 1)
        in
        try_candidates 0
      end
  in
  search spec.Spec.init [] 0

let is_linearizable spec entries = Option.is_some (linearization spec entries)

(* Lift a complete history into the general form [Linearize] checks. *)
let to_general entries : Conf_history.t =
  List.map
    (fun e ->
      {
        Conf_history.pid = e.pid;
        seq = 0;
        op = e.op;
        invoked = e.invoked;
        outcome = Conf_history.Completed { response = e.response; responded = e.responded };
        ghost = false;
      })
    entries
