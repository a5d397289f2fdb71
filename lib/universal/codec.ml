open Lb_memory

module Desc = struct
  type t = { pid : int; seq : int; op : Value.t }

  let key d = (d.pid, d.seq)

  let compare a b =
    let c = Int.compare a.pid b.pid in
    if c <> 0 then c else Int.compare a.seq b.seq

  let encode d = Value.triple (Value.Int d.pid) (Value.Int d.seq) d.op

  let decode v =
    let pid, seq, op = Value.to_triple v in
    { pid = Value.to_int pid; seq = Value.to_int seq; op }
end

module Dset = struct
  let empty = Value.List []
  let singleton d = Value.List [ Desc.encode d ]
  let decode v = List.map Desc.decode (Value.to_list v)

  let encode ds = Value.List (List.map Desc.encode ds)

  (* Merge two pid-sorted lists holding at most one descriptor per pid,
     keeping the higher [seq] where both name the same pid. *)
  let rec merge (xs : Desc.t list) (ys : Desc.t list) =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
      let c = Int.compare x.pid y.pid in
      if c < 0 then x :: merge xs' ys
      else if c > 0 then y :: merge xs ys'
      else (if x.seq >= y.seq then x else y) :: merge xs' ys'

  let union a b = encode (merge (decode a) (decode b))
  let add a d = union a (singleton d)
  let cardinal v = List.length (Value.to_list v)
end

module Root = struct
  type t = { state : Value.t; responses : ((int * int) * Value.t) list }

  let encode_key (pid, seq) = Value.Pair (Value.Int pid, Value.Int seq)

  let decode_key v =
    let pid, seq = Value.to_pair v in
    (Value.to_int pid, Value.to_int seq)

  let encode t =
    Value.Pair
      ( t.state,
        Value.List (List.map (fun (k, resp) -> Value.Pair (encode_key k, resp)) t.responses) )

  let decode v =
    let state, responses = Value.to_pair v in
    {
      state;
      responses =
        List.map
          (fun entry ->
            let k, resp = Value.to_pair entry in
            (decode_key k, resp))
          (Value.to_list responses);
    }

  let initial state = encode { state; responses = [] }

  let find_response t ~key = List.assoc_opt key t.responses

  let is_done t ~key:(pid, seq) =
    List.exists (fun ((p, s), _) -> p = pid && s >= seq) t.responses

  (* Replace [pid]'s entry (or insert one, keeping pid order). *)
  let insert_response responses ((pid, _) as key) resp =
    let rec go = function
      | [] -> [ (key, resp) ]
      | (((p, _), _) as entry) :: rest ->
        if pid < p then (key, resp) :: entry :: rest
        else if pid = p then (key, resp) :: rest
        else entry :: go rest
    in
    go responses

  let absorb spec t descs =
    List.fold_left
      (fun t (d : Desc.t) ->
        let key = Desc.key d in
        if is_done t ~key then t
        else
          let state', response = spec.Lb_objects.Spec.apply t.state d.op in
          { state = state'; responses = insert_response t.responses key response })
      t
      (List.sort Desc.compare descs)
end
