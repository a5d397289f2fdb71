open Lb_memory

type step = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
  was_pending : bool;
}

type stats = { states : int; memo_hits : int }

type verdict =
  | Linearizable of { witness : step list; stats : stats }
  | Not_linearizable of { stats : stats; completed : int; bad_prefix : int }
  | Budget_exhausted of { stats : stats; budget : int }

exception Out_of_budget

(* Wing–Gong DFS over one history.  Returns the witness or None; raises
   [Out_of_budget] when more than [max_states] distinct search nodes were
   expanded.  Memoization is on failure: a (taken-set, abstract-state) pair
   that already failed to extend to a full linearization never will. *)
let solve ~max_states (spec : Lb_objects.Spec.t) (history : History.t) =
  let ops = Array.of_list history in
  let nops = Array.length ops in
  let is_completed i =
    match ops.(i).History.outcome with History.Completed _ -> true | History.Pending -> false
  in
  let response_of i =
    match ops.(i).History.outcome with
    | History.Completed { response; _ } -> Some response
    | History.Pending -> None
  in
  let responded_of i =
    match ops.(i).History.outcome with
    | History.Completed { responded; _ } -> Some responded
    | History.Pending -> None
  in
  let num_completed = ref 0 in
  for i = 0 to nops - 1 do
    if is_completed i then incr num_completed
  done;
  let num_completed = !num_completed in
  let taken = Array.make nops false in
  let memo = Hashtbl.create 1024 in
  let states = ref 0 in
  let memo_hits = ref 0 in
  let key state =
    let b = Buffer.create (nops + 16) in
    for i = 0 to nops - 1 do
      Buffer.add_char b (if taken.(i) then '1' else '0')
    done;
    Buffer.add_char b '|';
    Buffer.add_string b (Value.to_string state);
    Buffer.contents b
  in
  (* An untaken op is enabled when every completed op that responded before
     its invocation has already been linearized (Wing–Gong minimality: the
     candidate is minimal in the real-time precedence order).  Pending ops
     never precede anything — they have no response. *)
  let enabled i =
    let inv = ops.(i).History.invoked in
    let ok = ref true in
    for j = 0 to nops - 1 do
      if !ok && not taken.(j) && j <> i then
        match responded_of j with
        | Some r when r < inv -> ok := false
        | Some _ | None -> ()
    done;
    !ok
  in
  let rec search state taken_completed =
    if taken_completed = num_completed then Some []
    else begin
      let k = key state in
      if Hashtbl.mem memo k then begin
        incr memo_hits;
        None
      end
      else begin
        incr states;
        if !states > max_states then raise Out_of_budget;
        let result = ref None in
        let try_candidate i =
          if !result = None && not taken.(i) && enabled i then begin
            let o = ops.(i) in
            let state', resp = spec.Lb_objects.Spec.apply state o.History.op in
            let accept, was_pending =
              match response_of i with
              | Some recorded -> (Value.equal recorded resp, false)
              | None -> (true, true)
            in
            if accept then begin
              taken.(i) <- true;
              let taken_completed' = if was_pending then taken_completed else taken_completed + 1 in
              (match search state' taken_completed' with
              | Some rest ->
                result :=
                  Some
                    ({ pid = o.History.pid; seq = o.History.seq; op = o.History.op;
                       response = resp; was_pending }
                    :: rest)
              | None -> ());
              taken.(i) <- false
            end
          end
        in
        (* Completed candidates first: they shrink the goal directly, so the
           DFS converges without speculating on optional pending effects. *)
        for i = 0 to nops - 1 do
          if is_completed i then try_candidate i
        done;
        for i = 0 to nops - 1 do
          if not (is_completed i) then try_candidate i
        done;
        if !result = None then Hashtbl.add memo k ();
        !result
      end
    end
  in
  let witness = search spec.Lb_objects.Spec.init 0 in
  (witness, { states = !states; memo_hits = !memo_hits }, num_completed)

(* The minimal violating prefix: order the completed responses r_1 < ... <
   r_C; the k-th prefix keeps operations completed by r_k, truncates
   operations invoked before r_k but not yet responded to pending, and drops
   the rest.  A prefix of a linearizable history is linearizable, so the
   first failing k certifies exactly where linearizability was lost. *)
let prefix_at history r_k =
  List.filter_map
    (fun (o : History.op) ->
      match o.History.outcome with
      | History.Completed { responded; _ } when responded <= r_k -> Some o
      | History.Completed _ | History.Pending ->
        if o.History.invoked < r_k then Some { o with History.outcome = History.Pending }
        else None)
    history

let bad_prefix ~max_states spec history num_completed =
  let response_times =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.outcome with
        | History.Completed { responded; _ } -> Some responded
        | History.Pending -> None)
      history
    |> List.sort Int.compare
  in
  let rec scan k = function
    | [] -> num_completed
    | r :: rest -> (
      match solve ~max_states spec (prefix_at history r) with
      | None, _, _ -> k
      | Some _, _, _ | (exception Out_of_budget) -> scan (k + 1) rest)
  in
  scan 1 response_times

let check ?(max_states = 200_000) (spec : Lb_objects.Spec.t) (history : History.t) =
  match solve ~max_states spec history with
  | Some witness, stats, _ -> Linearizable { witness; stats }
  | None, stats, completed ->
    Not_linearizable
      { stats; completed; bad_prefix = bad_prefix ~max_states spec history completed }
  | exception Out_of_budget ->
    Budget_exhausted { stats = { states = max_states; memo_hits = 0 }; budget = max_states }

let is_linearizable ?max_states spec history =
  match check ?max_states spec history with
  | Linearizable _ -> true
  | Not_linearizable _ | Budget_exhausted _ -> false

let pp_step ppf s =
  Format.fprintf ppf "p%d#%d %a -> %a%s" s.pid s.seq Value.pp s.op Value.pp s.response
    (if s.was_pending then " (pending)" else "")

let pp_verdict ppf = function
  | Linearizable { witness; stats } ->
    Format.fprintf ppf "linearizable (%d ops, %d states)" (List.length witness) stats.states
  | Not_linearizable { stats; completed; bad_prefix } ->
    Format.fprintf ppf "NOT linearizable: first %d of %d responses already violate (%d states)"
      bad_prefix completed stats.states
  | Budget_exhausted { budget; _ } ->
    Format.fprintf ppf "inconclusive: state budget %d exhausted" budget
