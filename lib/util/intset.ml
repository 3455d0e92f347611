include Set.Make (Int)

let of_range lo hi =
  let rec loop i acc = if i > hi then acc else loop (i + 1) (add i acc) in
  loop lo empty

let to_sorted_list = elements

let pp ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat ", " (List.map string_of_int (elements s)))

