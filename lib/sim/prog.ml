module Memory = Rme_memory.Memory
module Op = Rme_memory.Op

type 'a t =
  | Return of 'a
  | Step of Memory.loc * Op.t * (int -> 'a t)

let return x = Return x

let rec bind m f =
  match m with
  | Return x -> f x
  | Step (loc, op, k) -> Step (loc, op, fun v -> bind (k v) f)

let map f m = bind m (fun x -> Return (f x))

let op loc o = Step (loc, o, fun v -> Return v)

let read loc = op loc Op.Read

let write loc v = Step (loc, Op.Write v, fun _ -> Return ())

let cas loc ~expected ~desired =
  Step (loc, Op.Cas { expected; desired }, fun old -> Return (old = expected))

let fas loc v = op loc (Op.Fas v)

let faa loc d = op loc (Op.Faa d)

let fai loc = op loc Op.fai

let await loc cond =
  let rec spin () =
    Step (loc, Op.Read, fun v -> if cond v then Return v else spin ())
  in
  spin ()

let peek = function
  | Return _ -> None
  | Step (loc, o, _) -> Some (loc, o)

module Infix = struct
  let ( let* ) = bind
end

module K = struct
  let ( let@ ) f k = f k

  let op loc o k = Step (loc, o, k)

  let read loc k = Step (loc, Op.Read, k)

  let write loc v k = Step (loc, Op.Write v, k)

  let cas loc ~expected ~desired k =
    Step (loc, Op.Cas { expected; desired }, fun old -> k (old = expected))

  let fas loc v k = Step (loc, Op.Fas v, k)

  let faa loc d k = Step (loc, Op.Faa d, k)

  let fai loc k = Step (loc, Op.fai, k)

  let await loc cond k =
    let rec spin = Step (loc, Op.Read, fun v -> if cond v then k v else spin) in
    spin
end
